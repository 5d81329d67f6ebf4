"""Seeded, offline benchmark for probir; see README.md in this directory."""
