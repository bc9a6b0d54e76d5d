"""ramimo: link-level simulator for atomic MIMO receivers that read out only
signal amplitudes, with dual-slot phase-rotated transmission for recovering
the complex received signal and conventional ML/ZF detection on top."""

__version__ = "0.1.0"
