"""Corpus operations beyond the reference's per-request surface: dedup
families, similarity search, text analysis — the operations a large-scale
training-data pipeline needs."""
