"""Smoke tests keeping every example runnable end to end."""

import os
import subprocess
import sys

_EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")


def _run(name: str, timeout: int = 180) -> str:
    result = subprocess.run(
        [sys.executable, os.path.join(_EXAMPLES, name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = _run("quickstart.py")
        assert "re-layouts needed: 0" in out
        assert "matches reference: True" in out

    def test_chat_assistant(self):
        out = _run("chat_assistant.py")
        assert "FACIL vs hybrid-static" in out
        assert "feels instantaneous" in out or "OK for voice assistants" in out

    def test_code_autocomplete(self):
        out = _run("code_autocomplete.py")
        assert "profiled prefill crossover" in out
        assert "ideapad-slim-5" in out and "iphone-15-pro" in out

    def test_mapping_explorer(self):
        out = _run("mapping_explorer.py")
        assert "max MapID = 7" in out
        assert "####" in out  # the bank-placement picture

    def test_tiny_llm_generate(self):
        out = _run("tiny_llm_generate.py")
        assert "identical       : True" in out
