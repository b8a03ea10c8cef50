"""The perf-baseline script writes and checks one file, wherever it runs."""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "benchmarks" / "capture_baseline.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("capture_baseline", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_default_output_is_script_relative(tmp_path, monkeypatch):
    expected = REPO_ROOT / "benchmarks" / "BENCH_headline.json"
    seen = []
    for cwd in (REPO_ROOT, tmp_path, REPO_ROOT / "benchmarks"):
        monkeypatch.chdir(cwd)
        module = _load_script()
        args = module.build_parser().parse_args([])
        seen.append(Path(args.output).resolve())
        assert args.baseline is None  # --check falls back to the output path
    assert seen == [expected] * 3
    assert expected.is_file(), "the committed baseline is missing"
