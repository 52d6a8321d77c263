"""The CI steps that run tests/full_size.py name its steps, in its order; no full-size step runs here."""

import pathlib
import re

import full_size

WORKFLOW = pathlib.Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def test_ci_steps_are_the_module_steps_in_order():
    text = WORKFLOW.read_text(encoding="utf-8")
    steps = re.findall(r'^      - name: (.+)\n        run: PYTHONPATH=src python tests/full_size\.py "(.+)"$', text, re.M)
    assert text.count("tests/full_size.py") == len(steps)
    assert [name for name, _ in steps] == [argument for _, argument in steps] == list(full_size.STEPS)
    assert all(check.__doc__ for check in full_size.STEPS.values())
