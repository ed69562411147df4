"""The own-peak recorder of ``tools/peak_rss.py``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run(tmp_path, *args):
    out = tmp_path / "peak.txt"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "peak_rss.py"), str(out),
         "padicsde.cli", *args], cwd=tmp_path, env=env, capture_output=True,
        text=True)
    return proc, out.read_text(encoding="utf-8")


def test_records_the_peak_and_keeps_the_exit_status(tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"prime": 3, "precision": 4, "depth": 2, '
                      '"charfun": {}}', encoding="utf-8")
    proc, text = run(tmp_path, "charfun", "--config", str(config),
                     "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "manifest.json").exists()
    # the interpreter alone holds several MB
    assert text.endswith("\n") and float(text) > 1.0
    proc, text = run(tmp_path, "bogus")
    assert proc.returncode == 2
    assert float(text) > 1.0


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="VmHWM needs /proc")
def test_the_peak_is_the_child_s_own(tmp_path):
    # started from a process that holds 64 MB more: RUSAGE_SELF and a
    # parent's wait4 would read at least that, the child's VmHWM does not
    ballast = b"\1" * (64 << 20)
    proc, text = run(tmp_path, "bogus")
    del ballast
    assert proc.returncode == 2
    assert float(text) < 48
