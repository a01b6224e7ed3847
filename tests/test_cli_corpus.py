"""Replay the CLI output corpus: every argv's exit code, stdout and stderr as captured."""

import json

from capture_cli_corpus import GOLDEN, replay

SHOWN = 40  # changed argv named in a failure message


def test_cli_output_matches_the_corpus(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    actual = replay(tmp_path)
    assert list(actual) == list(expected), "corpus argv differ from the captured file"
    changed = [argv for argv, entry in actual.items() if entry != expected[argv]]
    assert not changed, "\n".join(
        [f"{len(changed)} of {len(actual)} argv changed [exit, stdout, stderr] "
         "(now / captured):"]
        + [f"  {argv}: {actual[argv]} / {expected[argv]}" for argv in changed[:SHOWN]]
        + [f"  and {len(changed) - SHOWN} more"] * (len(changed) > SHOWN))
