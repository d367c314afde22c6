"""The README states how a run is produced; keep it true to the code."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_env_table_lists_exactly_the_variables_in_src():
    """Every ``REPRO_*`` name that appears under ``src/`` has a row in the
    README's environment table, and every row names a variable that
    exists.  A ``<OP>`` row stands for its per-operation family."""
    rows = re.findall(
        r"^\| `(REPRO_[A-Z_]+)(<OP>)?` \|", (ROOT / "README.md").read_text(),
        re.M,
    )
    exact = {name for name, family in rows if not family}
    families = {name for name, family in rows if family}
    in_src = set()
    for path in (ROOT / "src").rglob("*.py"):
        in_src.update(re.findall(r"REPRO_[A-Z_]*[A-Z]", path.read_text()))

    undocumented = {
        name for name in in_src - exact
        if not any(name.startswith(prefix) for prefix in families)
    }
    assert not undocumented
    assert not exact - in_src, "rows for variables nothing reads"
    for prefix in families:
        assert any(name.startswith(prefix) for name in in_src)
