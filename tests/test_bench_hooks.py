"""The benchmark's tracer names functions and fields that pavc has.

bench/tracer.py looks up each name in its TRACED table with getattr and
its encode hooks read GeneratorMeta.witnesses, so a rename or deletion in
pavc would crash `bench/run.py --trace 1`.  This only reads bench/.
"""

import importlib
from pathlib import Path

from pavc.generator import encode_bridged, encode_naive

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    missing = [f"pavc.{module}.{name}"
               for module, names in tracer.TRACED.items() for name in names
               if not hasattr(importlib.import_module(f"pavc.{module}"), name)]
    assert missing == []
    hooks = tracer.TRACED["generator"]
    for name, encode in (("encode_naive", encode_naive),
                         ("encode_bridged", encode_bridged)):
        result = encode(2)
        assert hooks[name]((2,), {}, result) == len(result[1].witnesses) > 0
