"""Structured logging for the ``repro`` package.

All library modules log through children of the one ``repro`` logger
(``logging.getLogger("repro.engine")`` etc.), which stays silent until
:func:`setup_logging` attaches a handler — the standard library-friendly
arrangement.  The CLI exposes it as ``--log-level`` on every engine-using
subcommand.

The format is ``key=value`` structured text::

    ts=2026-08-05T12:00:00 level=INFO logger=repro.engine msg="engine ready" kernel=numpy
"""

from __future__ import annotations

import logging

__all__ = ["setup_logging", "LOG_FORMAT"]

LOG_FORMAT = "ts=%(asctime)s level=%(levelname)s logger=%(name)s msg=%(message)s"
_DATE_FORMAT = "%Y-%m-%dT%H:%M:%S"

#: Marker attached to handlers installed by :func:`setup_logging` so repeat
#: calls reconfigure instead of stacking duplicate handlers.
_HANDLER_TAG = "_repro_obs_handler"


def setup_logging(level: "str | int" = "INFO", stream=None) -> logging.Logger:
    """Configure the ``repro`` logger and return it.

    ``level`` is a logging level name (case-insensitive) or numeric value;
    ``stream`` defaults to stderr.  Idempotent: calling again replaces the
    previously installed handler rather than adding another.
    """
    if isinstance(level, str):
        resolved = logging.getLevelName(level.upper())
        if not isinstance(resolved, int):
            raise ValueError(f"unknown log level {level!r}")
        level = resolved
    logger = logging.getLogger("repro")
    for handler in list(logger.handlers):
        if getattr(handler, _HANDLER_TAG, False):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(stream)
    handler.setFormatter(logging.Formatter(LOG_FORMAT, datefmt=_DATE_FORMAT))
    setattr(handler, _HANDLER_TAG, True)
    logger.addHandler(handler)
    logger.setLevel(level)
    return logger
