"""Online convex mixture of two experts, with a verifiable regret guarantee.

The combiner mixes two expert predictions through a sigmoid-parameterized
weight updated along the gradient of the squared error.  The package also
ships the hindsight oracle the guarantee compares against, the full
constant set of the guarantee, per-step progress audits, worst-case
stress tests, benchmark sequences, and CSV/SVG tooling.

Each name is imported from its module: ``from convexmix.mixture import
run``, ``from convexmix import oracle``.
"""

__version__ = "0.1.0"
