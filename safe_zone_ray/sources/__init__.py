"""Sources / sinks (SURVEY.md section 2.1)."""

from safe_zone_ray.sources.pages_io import read_pages

__all__ = ["read_pages"]
