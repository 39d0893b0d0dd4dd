"""Every ``src/ctlab`` module stays at most 8,192 tokens long.

The count is ``tokenize``'s, with COMMENT and NL tokens dropped, so comment
lines and blank lines are free. CPython 3.11's ``compile()`` steps up in
memory past that size: under tracemalloc, ``hardness.py`` at 8,184 tokens
peaks at 2.90 MB, and the same file with statements appended peaks at
2.90 MB up to 8,192 tokens and at 3.37 MB from 8,193. Every benchmark worker
compiles every module when it starts, so one module past the step raises
each workload's ``peak_rss_mb``: importing ``ctlab.cli`` with ``hardness.py``
at 8,221 tokens peaked 0.42-0.66 MiB higher (three runs, no bytecode cache).
"""

import io
import tokenize
from pathlib import Path

import pytest

import ctlab

PACKAGE = Path(ctlab.__file__).resolve().parent
MAX_TOKENS = 8192


def _tokens(text: str) -> int:
    skipped = (tokenize.COMMENT, tokenize.NL)
    return sum(tok.type not in skipped for tok in tokenize.generate_tokens(io.StringIO(text).readline))


def test_token_count_skips_comments_and_blank_lines():
    assert _tokens("x = 1\n") == 5  # NAME OP NUMBER NEWLINE ENDMARKER
    assert _tokens("# a comment\n\nx = 1  # another\n\n") == 5


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_compiles_below_the_token_step(path):
    count = _tokens(path.read_text())
    assert count <= MAX_TOKENS, (
        f"{path.name} holds {count} tokens, above {MAX_TOKENS}: split it before adding code "
        "(ROADMAP item 6 splits hardness.py's probes, and its certificates if that reads better, "
        "into their own modules)"
    )
