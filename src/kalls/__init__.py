"""Pool-based active nearest-neighbor learning with adaptive label inference,
plus a synthetic laboratory that makes its working assumptions executable.

Callers import from the modules (``kalls.core``, ``kalls.evaluate``, ...);
the package itself binds only ``__version__``, which ``pyproject.toml`` reads
as the distribution's version."""

__version__ = "0.1.0"
