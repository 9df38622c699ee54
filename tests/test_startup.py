"""``import quatlie.cli`` loads no introspection machinery.

Every command pays for its imports at start-up, so the command line must
not pull in ``dataclasses`` and what it imports.  The probe runs a fresh
interpreter and reports the modules an import adds to those that a bare
interpreter of the same environment already holds, so the site's own
imports do not count.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def added_modules(statement: str) -> set:
    """Modules that ``statement`` adds in a fresh interpreter with ``src``
    on the path, over those it starts with."""
    probe = f"import sys; before = set(sys.modules); {statement}; print(*set(sys.modules) - before)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return set(out.stdout.split())


def test_cli_import_loads_no_introspection_modules():
    added = added_modules("import quatlie.cli")
    assert "quatlie.cli" in added
    assert added.isdisjoint(HEAVY), sorted(added & set(HEAVY))


def test_probe_reports_an_imported_dataclasses():
    # the negative control: the same probe sees the module once it is imported
    added = added_modules("import quatlie.cli, dataclasses")
    assert "dataclasses" in added and "quatlie.cli" in added
