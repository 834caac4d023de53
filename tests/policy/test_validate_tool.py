"""``tools/validate_policies.py``: the CI check over policy documents
registers each one the way the runtime does and reports every problem."""

import importlib.util
import json
from pathlib import Path

from repro.policy import shipped_policy_dir

TOOL = Path(__file__).resolve().parents[2] / "tools" / "validate_policies.py"


def _tool():
    spec = importlib.util.spec_from_file_location("validate_policies", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_shipped_documents_are_valid(capsys):
    tool = _tool()
    assert tool.validate_policy_dir(shipped_policy_dir()) == []
    assert tool.main(["validate_policies.py"]) == 0
    assert "policy documents valid" in capsys.readouterr().out


def test_every_problem_is_reported(tmp_path, capsys):
    shadow = {"name": "hash", "domain": "placement",
              "tree": {"choose": "argmin", "score": [{"signal": "active"}]}}
    (tmp_path / "a-shadow.json").write_text(json.dumps(shadow))
    (tmp_path / "b-malformed.json").write_text(json.dumps(
        {"name": "broken", "domain": "keepalive", "tree": {"if": {}}}))
    problems = _tool().validate_policy_dir(str(tmp_path))
    assert len(problems) == 2
    assert problems[0].startswith("a-shadow.json: ")
    assert "'hash' is already registered" in problems[0]
    assert problems[1] == ("b-malformed.json: $.tree: 'if' node is "
                           "missing its 'then' branch")
    assert _tool().main(["validate_policies.py", str(tmp_path)]) == 1
    assert capsys.readouterr().err.count("INVALID: ") == 2


def test_a_document_that_cannot_bind_is_reported(tmp_path, monkeypatch):
    from repro.policy import placement
    monkeypatch.delitem(placement.PLACEMENT_ACCESSORS, "active")
    (tmp_path / "unbound.json").write_text(json.dumps(
        {"name": "unbound", "domain": "placement",
         "tree": {"choose": "argmin", "score": [{"signal": "active"}]}}))
    assert _tool().validate_policy_dir(str(tmp_path)) == [
        "unbound.json: policy 'unbound': the placement domain has no "
        "accessor for signal 'active'"]
