"""Layered benchmark of the extraction engine (see README.md)."""
