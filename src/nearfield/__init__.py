"""Near-field joint channel estimation and cooperative localization."""

__version__ = "0.1.0"
