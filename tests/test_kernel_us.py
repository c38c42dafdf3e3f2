"""Smoke test of scripts/kernel_us.py on the sf0.001 pages: one JSON line
with a positive µs/doc, a positive cost per call on a 1-row slice and a
positive fitted fixed cost per call for each of the four stage kernels, and
a positive µs/doc for the read task. Detect's fitted fixed cost is at least
its 1-row cost: its prefilter skips most scans on one row."""

import json
import os
import subprocess
import sys

from safe_zone_ray.pages import synthesize_pages_dir

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "kernel_us.py")


def test_kernel_us_prints_every_kernel(sf_dir):
    pages = synthesize_pages_dir(sf_dir)
    run = subprocess.run(
        [sys.executable, SCRIPT, pages], capture_output=True, text=True, timeout=300, check=True
    )
    out = json.loads(run.stdout.strip().splitlines()[-1])
    assert out["rows"] > 0
    assert out["read"] > 0
    for kernel in ("extract", "langquality", "detect", "decide"):
        assert out[kernel] > 0, kernel
        assert out["per_call_us"][kernel] > 0, kernel
        assert out["fixed_us"][kernel] > 0, kernel
    assert set(out["per_call_us"]) == {"extract", "langquality", "detect", "decide"}
    assert set(out["fixed_us"]) == set(out["per_call_us"])
    assert out["fixed_us"]["detect"] >= out["per_call_us"]["detect"]
