"""Every ``REPRO_*`` environment knob the package reads is documented.

The README's "Performance knobs" table is the one place a user learns
which environment variables change how the simulator runs; a knob read
in ``src/`` without a row there is undocumented behaviour.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KNOB = re.compile(r"REPRO_[A-Z_]+")


def _knobs_in_src():
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        names.update(KNOB.findall(path.read_text()))
    return names


def _knob_table_rows():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Performance knobs", 1)[1].split("\n## ", 1)[0]
    names = set()
    for line in section.splitlines():
        if line.startswith("|"):
            first_cell = line.split("|")[1]
            names.update(KNOB.findall(first_cell))
    return names


def test_every_src_knob_has_a_readme_row():
    knobs = _knobs_in_src()
    assert knobs, "no REPRO_* names found under src/"
    missing = knobs - _knob_table_rows()
    assert not missing, f"README 'Performance knobs' lacks rows for {sorted(missing)}"
