"""Cyclostationary RFI monitoring for simulated phased-array telescopes."""

__version__ = "0.1.0"
