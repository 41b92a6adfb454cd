"""Single source of the version baked into ``report.json`` and ``*.verdicts.json``."""

__version__ = "0.1.0"
TOOL_VERSION = f"specmosaic {__version__}"
