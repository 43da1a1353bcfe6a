"""Seeded benchmark of the qlrc package: see run.py."""
