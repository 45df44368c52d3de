import importlib
import json
import pathlib

BENCHMARK = pathlib.Path(__file__).parents[1] / "BENCHMARK.json"


def test_traced_layer_names_are_callable():
    # resolved as the benchmark tracer does: cck.<module>, then attribute by attribute;
    # a name that does not resolve makes the traced run report it absent
    spans = {entry["name"].rpartition(".")[0] for entry in json.loads(BENCHMARK.read_text())["per_layer"]}
    unresolved = []
    for span in sorted(s for s in spans if not s.startswith("trace")):
        module, *path = span.split(".")
        owner = importlib.import_module(f"cck.{module}")
        for part in path:
            owner = getattr(owner, part, None)
        if not callable(owner):
            unresolved.append(span)
    assert spans and not unresolved
