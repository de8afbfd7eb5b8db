"""Every option the CLI parses is read by the CLI as ``args.<dest>``."""

import ast
import os

import spikegraph

CLI = os.path.join(os.path.dirname(spikegraph.__file__), "cli.py")


def unread_options(source: str) -> list[str]:
    """First name of each ``add_argument`` option whose dest is never read
    as ``args.<dest>``."""
    tree = ast.parse(source)
    read = {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
            and n.value.id == "args"}
    unread = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"):
            continue
        names = [a.value for a in node.args if isinstance(a, ast.Constant)]
        dest = next((k.value.value for k in node.keywords if k.arg == "dest"), None)
        if dest is None:
            longs = [n for n in names if n.startswith("--")]
            dest = (longs or names)[0].lstrip("-").replace("-", "_")
        if dest not in read:
            unread.append(names[0])
    return unread


def test_no_parsed_but_ignored_option():
    with open(CLI) as fh:
        assert unread_options(fh.read()) == []


def test_checker_sees_an_unread_option():
    source = ("p.add_argument('checkpoint')\n"
              "p.add_argument('--dry-run', action='store_true')\n"
              "p.add_argument('-q', '--quiet-mode')\n"
              "p.add_argument('-v', dest='verbose')\n"
              "p.add_argument('-n')\n"
              "print(args.checkpoint, args.quiet_mode, args.n, other.verbose)\n")
    assert unread_options(source) == ["--dry-run", "-v"]
