"""The reproduction driver: its experiment table and flag forwarding."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

DRIVER = Path(__file__).resolve().parents[1] / "scripts" / "reproduce.py"


@pytest.fixture(scope="module")
def reproduce():
    spec = importlib.util.spec_from_file_location("reproduce", DRIVER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv,runs,forwarded", [
    (["convergence-quick"], [""], {"n_list": [256, 512, 1024], "seeds": 3}),
    (["specdim", "--walkers", "20000", "--tmax", "256"], ["d1", "d2"],
     {"walkers": 20000, "tmax": 256}),
    (["curves", "--N", "128"], ["gamma8", "gamma28", "diffusion"], {"N": 128}),
], ids=["convergence-quick", "specdim", "curves"])
def test_experiment_writes_every_run(reproduce, tmp_path, argv, runs,
                                     forwarded):
    out = tmp_path / "out"
    assert reproduce.main(argv + ["--out", str(out)]) == 0
    manifests = sorted(out.rglob("manifest.json"))
    assert manifests == sorted(out / run / "manifest.json" for run in runs)
    for path in manifests:
        manifest = json.loads(path.read_text())
        assert manifest["config"]["svg"] is True
        for key, value in forwarded.items():
            assert manifest["config"][key] == value
        outputs = manifest["outputs"]
        assert {p.name for p in path.parent.iterdir()} == {*outputs,
                                                           "manifest.json"}
        for name, digest in outputs.items():
            blob = (path.parent / name).read_bytes()
            assert hashlib.sha256(blob).hexdigest() == digest, name


def test_unknown_experiment_exits_two(reproduce, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        reproduce.main(["bogus", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
