"""Golden outputs: a small seeded CLI run must reproduce committed digests byte for byte.

The digests were taken from the code before faces were rasterized once
per canvas and cropped to their outlines; any change to a score, a
model field, a CSV byte or the synth manifest's pair order and labels
shows up here.
"""

import hashlib

from fuzzyface.cli import main

GOLDEN_SHA256 = {
    "report.json": "ff93cf8b95a20ffc13526fd1aaef9e93e08ccfa0596d9ab61916d093f57215fe",
    "model.json": "c8faba83eb790b0f5983cc69fc632b28128e2e6ff34a377dd2ac8382f7a95dbb",
    "scores.csv": "98bd00949747dbd9f7e62d5ebb080b89c13c5c2d2a70001699b81473ce16378d",
    "pop/manifest.json": "fcf1b547ee84a463ab1ff8c6791037989b512960126132cb68e4ac60b867ee38",
}


def test_synth_calibrate_evaluate_digests(tmp_path, capsys):
    population = tmp_path / "pop"
    manifest = str(population / "manifest.json")
    assert main(["synth", "--identities", "4", "--captures", "3", "--seed", "5",
                 "--capture-sigma", "5", "-o", str(population)]) == 0
    assert main(["calibrate", manifest, "-o", str(tmp_path / "model.json")]) == 0
    assert main(["evaluate", manifest, "--model", str(tmp_path / "model.json"),
                 "--threshold", "90", "-o", str(tmp_path / "report.json"),
                 "--csv", str(tmp_path / "scores.csv")]) == 0
    capsys.readouterr()
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDEN_SHA256}
    assert digests == GOLDEN_SHA256
