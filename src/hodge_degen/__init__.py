"""Desk-scale verification toolkit for the singularity and limit
invariants of higher cycles on a degenerating pencil of surfaces.

Import from the modules (``hodge_degen.cycles``, ``hodge_degen.periods``,
...); the package itself re-exports nothing."""

__version__ = "0.1.0"
