"""Docs cannot drift: the CLI reference must cover the live argparse
tree, the HTTP reference must list exactly the served routes, and the
markdown files must not contain dangling local links."""

import argparse
import pathlib
import re

import pytest

from repro.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent
CLI_DOC = ROOT / "docs" / "cli.md"
DOC_FILES = [ROOT / "README.md",
             *sorted((ROOT / "docs").glob("*.md"))]


def _subparsers(parser: argparse.ArgumentParser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            yield from action.choices.items()


def _collect_cli_surface():
    """(subcommand, option-or-positional) pairs of the whole tree."""
    surface = []
    for name, sub in _subparsers(build_parser()):
        surface.append((name, None))
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            if action.option_strings:
                longest = max(action.option_strings, key=len)
                surface.append((name, longest))
            else:
                surface.append((name, action.dest))
    return surface


class TestCliDocSync:
    def test_doc_exists(self):
        assert CLI_DOC.is_file()

    @pytest.mark.parametrize(
        "command,token", _collect_cli_surface(),
        ids=[f"{c}:{t or '<command>'}" for c, t in _collect_cli_surface()])
    def test_every_command_and_flag_documented(self, command, token):
        text = CLI_DOC.read_text()
        assert f"repro {command}" in text, \
            f"subcommand {command!r} missing from docs/cli.md"
        if token is not None:
            needle = token if token.startswith("-") else f"`{token}`"
            assert needle in text, \
                f"{command}: {token!r} missing from docs/cli.md"

    def test_no_phantom_flags_documented(self):
        """Every `--flag` mentioned in the doc exists somewhere in the
        argparse tree (catches docs for removed options)."""
        real = {opt for _, sub in _subparsers(build_parser())
                for action in sub._actions
                for opt in action.option_strings}
        documented = set(re.findall(r"(?<![-\w])--[a-z][a-z-]+",
                                    CLI_DOC.read_text()))
        assert documented <= real, \
            f"docs/cli.md documents unknown flags: {documented - real}"


SERVING_DOC = ROOT / "docs" / "serving.md"
#: routes outside the declared table: the ``/jobs/<id>`` prefix route's
#: sub-routes and the chaos control answered before routing
UNTABLED_ROUTES = [("GET", "/jobs/<id>"), ("GET", "/jobs/<id>/stream"),
                   ("POST", "/jobs/<id>/pause"),
                   ("POST", "/jobs/<id>/resume"),
                   ("GET/POST", "/debug/faults")]


class TestHttpDocSync:
    def test_endpoint_table_lists_exactly_the_served_routes(self):
        """docs/serving.md's endpoint table names every route the
        server declares, with its method, and nothing else."""
        from repro.service.server import DesignServer

        section = SERVING_DOC.read_text().split("## Endpoints", 1)[1]
        section = section.split("\n#", 1)[0]
        documented = re.findall(r"^\| ([A-Z/]+) \| `([^`]+)` \|", section,
                                flags=re.MULTILINE)
        served = [(method, path) for path, (method, _handler)
                  in DesignServer.routes.items()] + UNTABLED_ROUTES
        assert sorted(documented) == sorted(served)


LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


class TestMarkdownLinks:
    @pytest.mark.parametrize("path", DOC_FILES,
                             ids=[p.name for p in DOC_FILES])
    def test_local_links_resolve(self, path):
        assert path.is_file()
        broken = []
        for target in LINK.findall(path.read_text()):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            local = target.split("#", 1)[0]
            if not local:
                continue  # pure in-page anchor
            if not (path.parent / local).exists():
                broken.append(target)
        assert not broken, f"{path.name}: broken local links {broken}"

    def test_readme_links_docs(self):
        text = (ROOT / "README.md").read_text()
        assert "docs/architecture.md" in text
        assert "docs/cli.md" in text
