"""The README's library quickstart, run from top to bottom, prints the
digits that its comments show."""
import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
# a comment that opens with a number, after an optional "≈"
_NUMBER = re.compile(r"#\s*(?:≈\s*)?(-?\d+(?:\.\d+)?)(?=[\s,:;]|$)")


def _quickstart_blocks() -> list[str]:
    section = README.read_text().split("## Quickstart (library)\n")[1]
    section = section.split("\n## ")[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def _numbered_comments(block: str) -> dict[int, str]:
    """{line: the number its comment opens with}"""
    out = {}
    for tok in tokenize.generate_tokens(io.StringIO(block).readline):
        if tok.type == tokenize.COMMENT and (match := _NUMBER.match(tok.string)):
            out[tok.start[0]] = match.group(1)
    return out


def _printed(value, digits: str) -> str:
    """value with as many decimals as digits has."""
    decimals = len(digits.partition(".")[2])
    return f"{float(value):.{decimals}f}"


def test_readme_quickstart_prints_its_commented_numbers():
    blocks = _quickstart_blocks()
    assert len(blocks) == 3
    namespace: dict = {}
    checked = []
    for block in blocks:
        numbers = _numbered_comments(block)
        for stmt in ast.parse(block).body:
            if isinstance(stmt, ast.Expr):
                code = compile(ast.Expression(stmt.value), "README.md", "eval")
                value = eval(code, namespace)
            else:
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
                value = None
            for line in range(stmt.lineno, stmt.end_lineno + 1):
                if line in numbers:
                    digits = numbers.pop(line)
                    assert value is not None, f"no value to print for # {digits}"
                    assert _printed(value, digits) == digits, (ast.unparse(stmt), value)
                    checked.append(digits)
        assert not numbers, f"numbered comments off any statement: {numbers}"
    assert len(checked) == 11
