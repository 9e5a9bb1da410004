"""The README's examples run against the current API."""

import re
from pathlib import Path

from axinozzle.cli import BAND_LIMIT, parse_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced(language):
    """The bodies of the README's fenced blocks in this language."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


def test_readme_library_use_runs(capsys):
    (block,) = fenced("python")
    exec(compile(block, "README.md", "exec"), {})
    passed, mach = capsys.readouterr().out.split()
    assert passed == "True" and 0.0 < float(mach) < 1.0


def test_readme_config_example_parses():
    (block,) = fenced("ini")
    cfg = parse_config(block)
    assert cfg.nozzle.kind == "tanh_step" and cfg.nozzle.length is None
    assert cfg.flux.mode == "single" and cfg.flux.m0 == 0.9


def test_readme_band_limit():
    assert "would exceed 2 GiB (`BAND_LIMIT`; 1024 x 512 cells is just under it)" in README
    assert BAND_LIMIT == 2 * 2**30
    under, over = (8 * (nr + 1) * (1024 - 1) * (nr - 1) for nr in (512, 514))
    assert under <= BAND_LIMIT < over
