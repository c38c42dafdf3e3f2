"""``scripts/spans_split.py`` splits idle worker time into start-up
stagger, gaps between a worker's spans and end spread."""

import json

import pytest

from scripts.spans_split import main, split


def _span(pid, start, end):
    return {"pid": pid, "start": start, "end": end, "layer": "extract", "rows": 1}


SPANS = [
    _span(1, 10.0, 10.5),
    _span(1, 10.5, 11.0),  # back to back: no gap
    _span(1, 11.25, 12.0),  # 0.25 s gap
    _span(2, 10.75, 11.5),  # starts 0.75 s late
    _span(2, 11.0, 11.25),  # overlaps its previous span: no negative gap
]


def test_split_synthetic_spans():
    out = split(SPANS)
    assert out["span_s"] == 2.0
    assert out["workers"] == {
        1: {"stagger": 0.0, "gaps": 0.25, "end_spread": 0.0},
        2: {"stagger": 0.75, "gaps": 0.0, "end_spread": 0.5},
    }
    assert out["total"] == {"stagger": 0.75, "gaps": 0.25, "end_spread": 0.5}


def test_main_reads_jsonl(tmp_path, capsys):
    path = tmp_path / "flagship-seed1.jsonl"
    path.write_text("".join(json.dumps(s) + "\n" for s in SPANS))
    main(str(path))
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("2 workers over 2.000 s")
    assert lines[1].split() == [
        "total", "stagger", "0.750", "s", "gaps", "0.250", "s", "end_spread", "0.500", "s"
    ]


def test_empty_file_raises(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(ValueError, match="no spans"):
        main(str(path))
