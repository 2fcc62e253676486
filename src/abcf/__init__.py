"""Two-parameter continued fractions and attractors; import each name from its module (abcf.cf, ...)."""

__version__ = "0.1.0"
