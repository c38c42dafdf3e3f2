"""The driver-window conditions (``scripts/size_ledger.window_breaks``)
checked against THIS checkout: its ``__ray_entry__.py`` and CORRECTNESS
files are loaded by file path, under module names nothing else imports, so
a copy of the repository checks its own query order and not whichever
``__ray_entry__`` another test already cached in ``sys.modules``."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(rel_path: str, name: str):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, rel_path))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def window(sf_dir):
    ledger = _load("scripts/size_ledger.py", "_size_ledger_of_this_checkout")
    entry = _load("__ray_entry__.py", "_ray_entry_of_this_checkout")
    return ledger, list(entry.queries()), entry.oracle_sql(sf_dir), ledger.checked_entries()


def test_this_checkout_meets_the_window_conditions(window):
    ledger, queries, oracle, checked = window
    assert ledger.window_breaks(queries, oracle, checked) == []


def test_checked_entry_first_breaks_the_window(window):
    ledger, queries, oracle, checked = window
    assert "toxicity_flags" in checked  # driver-checked in r01
    order = ["toxicity_flags"] + [k for k in queries if k != "toxicity_flags"]
    breaks = ledger.window_breaks(order, oracle, checked)
    assert "in CORRECTNESS_r01-r04: toxicity_flags" in breaks
    assert any(b.startswith("window[0] is") for b in breaks)
