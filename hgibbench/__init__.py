"""Benchmark of the hgib CLI; see README.md."""
