import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _python(*argv):
    """Run a fresh interpreter with ``src`` on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120)


def _order_census(*argv):
    return _python(str(ROOT / "scripts" / "order_census.py"), *argv)


def test_the_package_import_loads_no_dataclasses_inspect_or_json():
    """The result records are NamedTuples or plain classes, and only
    ``to_json`` needs json, so ``import grigorchuk`` loads none of these;
    the CLI, which does need json, still imports."""
    proc = _python(
        "-c",
        "import grigorchuk, sys; "
        "loaded = sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)); "
        "assert not loaded, loaded; "
        "import grigorchuk.cli",
    )
    assert proc.returncode == 0, proc.stderr


def test_order_census_smoke():
    proc = _order_census("--maxn", "4")
    assert proc.returncode == 0, proc.stderr
    assert "squaring oracle agrees" in proc.stdout
    # the census of the 4-ball, as the script printed it when it still read
    # the words from ball_grigorchuk
    assert proc.stdout.splitlines()[:6] == [
        "40 distinct elements in the 4-ball",
        "  order   1: 1 elements",
        "  order   2: 11 elements",
        "  order   4: 6 elements",
        "  order   8: 10 elements",
        "  order  16: 12 elements",
    ]


def test_order_census_rejects_a_negative_radius_as_usage():
    # exit 1 is kept for an oracle mismatch
    proc = _order_census("--maxn", "-1")
    assert proc.returncode == 2
    assert "--maxn must be >= 0" in proc.stderr
    assert "Traceback" not in proc.stderr
