"""Golden exact reports: the sha256 of every exact suite's report at a small
sample count, without `elapsed_ms`.  An exact report is a function of the
seed and the samples alone, so a change to the program that keeps the exact
results keeps these digests; the recorded values were computed before the
structures were built as matrix products, and must not be edited to make a
change pass.  `degrees` has no exact mode."""

import hashlib
import json

import pytest

from sixsphere.suites import MODES, run_suite

# suite -> (samples, sha256 of the report's JSON with sorted keys)
GOLDEN = {
    "octonion-axioms": (3, "20c3abb69876a66bfdb33a6485c7ba5be060a5fa482743979f53148a5ce75e7f"),
    "moufang": (10, "59742c2847537788525473591954a483256eae24fd42473846150dd414d139c9"),
    "prop21": (5, "128ee59ef54464b13595d4f78c90cfedd1d756d28c4db6be915fd36c6b933d11"),
    "lemma22": (1, "ce91679a582b92ba62d6e00e9ea99b6cc0c7b7dfcce8dc60892e949ef3e0599c"),
    "prop31": (20, "0748f0255b1ee0df2c04ea1aeaa68c7e1ecd4f8a5b9dcfb64cad834d634bdb43"),
    "lemma34": (10, "f02a7fb01bfb7fce91afbf31e5c33d09db266a13ab3052a7293b7992cb18b008"),
    "thm33-lift": (10, "415adc61ade4244a6147dabf75fa5b0465954512fdb577fd9984b390513a3ae0"),
    "prop41": (3, "bc7b2a8dc43a3ba510e4231ce66d913c11e2ca11fbd45d88a4174d39afeaf5d8"),
    "prop42": (10, "e1a02be9496ba284283fa6f27a2064af8ea776a8b6a824f341c4b5bd91ab1fe9"),
    "homotopy-tables": (1, "ec594c6410e0ae4720ff915b3c7fc39fd21cb16cce3690fc86eee72ea25abfb6"),
}


def test_golden_covers_every_exact_suite():
    assert set(GOLDEN) == {n for n, modes in MODES.items() if "exact" in modes}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_exact_report_is_unchanged(name):
    samples, digest = GOLDEN[name]
    report = run_suite(name, mode="exact", seed=1, samples=samples).to_dict()
    assert report["mode"] == "exact" and report["failures"] == []
    del report["elapsed_ms"]
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
