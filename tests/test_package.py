import ast
import copy
import json
import pathlib
import pickle
import subprocess
import sys
import types
from collections import Counter, _tuplegetter, namedtuple

import pytest

import ghzcert
from ghzcert.errors import BadLevelError
from ghzcert.gpor import OrthRep, OrthRepReport, verify_orthrep
from ghzcert.hypergraph import (
    Cut,
    Edge,
    Graph,
    Hypergraph,
    complete_uniform,
    edge_connectivity,
    graph,
    hypergraph,
    min_cut,
)
from ghzcert.protocol import (
    Certificate,
    CertificateReport,
    CheckResult,
    EprRate,
    QuadraticAssignment,
    RateBound,
    epr_rate,
    ghz_rate_bound,
    synthesize_certificate,
    verify_certificate,
)


def test_all_names_resolve_without_duplicates():
    names = ghzcert.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(ghzcert, name)]
    assert not missing


def test_every_export_is_defined_by_a_submodule():
    # __all__ is computed from the package namespace, so a helper imported
    # into __init__.py by mistake would be exported: every name must be a
    # class, function or constant of a ghzcert submodule
    submodules = {n: m for n, m in sys.modules.items() if n.startswith("ghzcert.")}
    foreign = []
    for name in ghzcert.__all__:
        value = getattr(ghzcert, name)
        if isinstance(value, (type, types.FunctionType)):
            homes = [submodules.get(value.__module__)]
        else:  # a constant: a submodule binds the same object
            homes = submodules.values()
        if (
            name.startswith("_")
            or isinstance(value, types.ModuleType)
            or not any(getattr(m, name, None) is value for m in homes)
        ):
            foreign.append(name)
    assert foreign == []


def test_the_package_imports_only_the_standard_library():
    # the runtime stays stdlib-only: every import in src/ghzcert names a
    # standard-library module or the package itself
    src = pathlib.Path(ghzcert.__file__).parent
    foreign = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "ghzcert":
                    foreign.setdefault(path.name, []).append(name)
    assert not foreign


def test_importing_the_package_builds_no_command_line_parser():
    # library users pay for no command-line module
    src = str(pathlib.Path(ghzcert.__file__).parent.parent)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import ghzcert; "
        "print(sorted({'ghzcert.cli', 'argparse'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code, src],
        capture_output=True, text=True, check=True,
    )
    assert done.stdout == "[]\n"


def test_the_command_line_loads_no_module_it_does_not_use():
    # every command pays for its imports: dataclasses would draw in inspect,
    # ast, dis and tokenize, and fractions decimal, about 18 ms of a 28 ms
    # start-up; argparse draws in gettext and locale, about 4 ms; typing
    # about 6 ms.  -S, since a site package may import typing itself
    src = str(pathlib.Path(ghzcert.__file__).parent.parent)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import ghzcert.cli; "
        "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal',"
        " 'argparse', 'gettext', 'locale', '_locale', 'typing'}"
        " & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, src],
        capture_output=True, text=True, check=True,
    )
    assert done.stdout == "[]\n"


def test_import_compiles_no_code():
    # the records are tuple subclasses written out: no module imports
    # typing, names namedtuple or NamedTuple (which build __new__ with
    # eval), or calls eval, exec or compile
    src = pathlib.Path(ghzcert.__file__).parent
    record_makers = {"typing", "namedtuple", "NamedTuple"}
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                module = getattr(node, "module", None) or ""
                names = {module.split(".")[0]}
                names |= {alias.name.split(".")[0] for alias in node.names}
                banned = record_makers
            elif isinstance(node, ast.Attribute):
                names, banned = {node.attr}, record_makers
            elif isinstance(node, ast.Name):
                names, banned = {node.id}, record_makers | {"eval", "exec", "compile"}
            else:
                continue
            if names & banned:
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


def test_the_only_import_inside_a_function_is_fractions():
    # start-up is cut by importing less, not by putting imports off: the
    # one deferred import is fractions, for EprRate.rate, which no command reads
    src = pathlib.Path(ghzcert.__file__).parent
    deferred = []
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                deferred += [
                    (path.name, fn.name, ast.unparse(node))
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert deferred == [("protocol.py", "rate", "from fractions import Fraction")]


def test_records_are_immutable_values_that_check_themselves():
    # the records are tuple subclasses with namedtuple's interface: equal
    # and hashed by value, read-only, printed by field, and Hypergraph and
    # Graph check every build, _replace, _make and unpickling included
    h = complete_uniform(3, 2)
    cert = synthesize_certificate(h, 4)
    parsed = Certificate.from_json_dict(json.loads(cert.to_json_bytes()))
    assert parsed == cert and parsed is not cert
    # the assignment's terms are dicts, so a certificate has no hash, as
    # before; without them the parsed one hashes as the original
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(cert)
    bare = cert._replace(assignment=None)
    assert hash(parsed._replace(assignment=None)) == hash(bare)
    assert hash(parsed.hypergraph) == hash(h) and hash(parsed.rep) == hash(cert.rep)
    fields = ((cert, "n"), (h, "k"), (h.edges[0], "level"), (cert.rep.graph, "n"))
    for record, field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, 5)
        with pytest.raises(AttributeError):
            record.extra = 5
    assert repr(h.edges[0]) == "Edge(vertices=frozenset({1, 2}), level=2)"
    assert repr(hypergraph(2, [{1, 2}], [3])) == (
        "Hypergraph(k=2, edges=(Edge(vertices=frozenset({1, 2}), level=3),))"
    )
    assert repr(min_cut(h)) == "Cut(side=frozenset({1}), crossing=(0, 1), rank=4)"
    assert repr(CheckResult("counting", "pass")) == (
        "CheckResult(name='counting', status='pass', detail='')"
    )
    level1 = Edge(frozenset({1, 3}), 1)
    with pytest.raises(BadLevelError) as err:
        h._replace(edges=h.edges + (level1,))
    assert err.value.edge_index == 3
    with pytest.raises(BadLevelError) as err:
        Hypergraph._make((3, (level1,)))
    assert err.value.edge_index == 0
    assert Hypergraph._make((3, h.edges)) == h
    with pytest.raises(ValueError, match="bad edge \\(0, 3\\) for n=3"):
        cert.rep.graph._replace(edges=frozenset({(0, 3)}))
    assert Graph._make((2, frozenset({(0, 1)}))) == graph(2, [(1, 0)])
    unchecked = tuple.__new__(Hypergraph, (3, (level1,)))
    with pytest.raises(BadLevelError):
        pickle.loads(pickle.dumps(unchecked))

    # the containers a caller passes are frozen, so no later edit can break
    # what was checked
    loose = Hypergraph(3, [Edge({1, 2}), Edge([2, 3])])
    assert loose == hypergraph(3, [{1, 2}, {2, 3}])
    assert type(loose.edges) is tuple
    assert {type(e.vertices) for e in loose.edges} == {frozenset}
    with pytest.raises(AttributeError):
        loose.edges[0].vertices.add(7)
    assert edge_connectivity(loose) == 1
    assert type(Graph(3, {(0, 1)}).edges) is frozenset
    assert Graph(3, [(0, 1)]) == graph(3, [(0, 1)])

    # every record keeps namedtuple's interface, field for field
    rep = cert.rep
    records = {
        Edge: (h.edges[0], (2,)),
        Hypergraph: (h, ()),
        Cut: (min_cut(h), ()),
        Graph: (rep.graph, (frozenset(),)),
        OrthRep: (rep, ()),
        OrthRepReport: (verify_orthrep(rep), ((), None)),
        QuadraticAssignment: (cert.assignment, ()),
        Certificate: (cert, ("1",)),
        CheckResult: (CheckResult("counting", "fail", "M"), ("",)),
        CertificateReport: (verify_certificate(cert), ()),
        RateBound: (ghz_rate_bound(h), ()),
        EprRate: (epr_rate(h, 1, 2), ()),
    }
    assert [cls._fields for cls in records] == [
        ("vertices", "level"),
        ("k", "edges"),
        ("side", "crossing", "rank"),
        ("n", "edges"),
        ("graph", "d", "vectors"),
        ("orthogonality_violations", "dependent_subsets", "zero_vectors",
         "wrong_width", "vector_count"),
        ("k", "quad", "lin", "const"),
        ("hypergraph", "lam", "d", "rep", "cprime", "n", "g", "m_count",
         "assignment", "seed", "version"),
        ("name", "status", "detail"),
        ("checks",),
        ("lam", "cut_rank", "uniform"),
        ("a", "b", "t", "paths"),
    ]
    for cls, (record, defaults) in records.items():
        fields = cls._fields
        ref = namedtuple(cls.__name__, fields)(*record)
        assert type(record) is cls and cls.__match_args__ == fields
        assert all(type(getattr(cls, f)) is _tuplegetter for f in fields)
        assert [getattr(record, f) for f in fields] == list(record)
        assert repr(record) == repr(ref)
        assert record._asdict() == ref._asdict()
        assert list(record._asdict()) == list(fields)
        assert cls(**record._asdict()) == record == tuple(record)
        assert cls._make(iter(record)) == record
        required = len(fields) - len(defaults)
        assert tuple(cls(*record[:required])) == record[:required] + defaults
        for wrong in (record[:required - 1], (*record, None)):
            with pytest.raises(TypeError):
                cls(*wrong)
        with pytest.raises(ValueError, match="unexpected field names: \\['bogus'\\]"):
            record._replace(bogus=1)
        assert record._replace() == record
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(record, protocol))
            assert type(back) is cls and back == record
        assert type(copy.deepcopy(record)) is cls and copy.deepcopy(record) == record
        try:
            assert hash(record) == hash(tuple(record))
        except TypeError:  # a dict inside, as in a plain tuple
            with pytest.raises(TypeError):
                hash(tuple(record))
    match h:
        case Hypergraph(k, edges=[Edge(vertices, level), *_]):
            assert (k, vertices, level) == (3, {1, 2}, 2)


def test_linear_algebra_gpor_and_tensor_carry_no_test_only_functions():
    # a public function of these modules that neither another module of the
    # package nor a demo calls is a test oracle and belongs in tests/
    src = pathlib.Path(ghzcert.__file__).parent
    demos = src.parent.parent / "demos"
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for path in sorted(src.glob("*.py")) + sorted(demos.glob("*.py"))
        if path.name != "__init__.py"
    }
    used: dict[pathlib.Path, set[str]] = {
        path: {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        for path, tree in trees.items()
    }
    unused = []
    for name in ("ratlinalg.py", "gpor.py", "tensor.py"):
        module = src / name
        for node in trees[module].body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                if not any(node.name in names for path, names in used.items()
                           if path != module):
                    unused.append(f"{name}:{node.name}")
    assert not unused


def test_protocol_and_hypergraph_carry_no_uncalled_public_functions():
    # a public function of these modules that nothing in the package (its
    # own module included) or the demos calls, exported or not, is a test
    # oracle and belongs in tests/
    src = pathlib.Path(ghzcert.__file__).parent
    demos = src.parent.parent / "demos"
    trees = {
        path.name: ast.parse(path.read_text(), str(path))
        for path in sorted(src.glob("*.py")) + sorted(demos.glob("*.py"))
    }
    called = {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, (ast.Name, ast.Attribute))
    }
    uncalled = [
        f"{name}:{node.name}"
        for name in ("protocol.py", "hypergraph.py")
        for node in trees[name].body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in called
    ]
    assert not uncalled


def test_every_private_module_name_is_referenced():
    # a module-level private function, class or constant of the package that
    # nothing in the package or the demos names, outside its own definition,
    # is dead code left behind by a refactor
    src = pathlib.Path(ghzcert.__file__).parent
    demos = src.parent.parent / "demos"
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for path in sorted(src.glob("*.py")) + sorted(demos.glob("*.py"))
    }

    def names(node) -> list[str]:
        return [
            sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute)
            or isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store)
        ]

    everywhere = Counter(name for tree in trees.values() for name in names(tree))
    unreferenced = []
    for path, tree in trees.items():
        if path.parent != src:
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            own = Counter(names(node))
            unreferenced += [
                f"{path.name}:{name}"
                for name in defined
                if name.startswith("_")
                and not name.startswith("__")
                and everywhere[name] == own[name]
            ]
    assert not unreferenced


def test_every_error_class_is_raised_or_caught_by_the_package():
    # an error class of errors.py that no other module of the package names
    # is never raised there: it is dead public API, or a test's own error
    src = pathlib.Path(ghzcert.__file__).parent
    errors = ast.parse((src / "errors.py").read_text())
    defined = [
        node.name
        for node in errors.body
        if isinstance(node, ast.ClassDef) and node.name != "GhzcertError"
    ]
    named = {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for path in sorted(src.glob("*.py"))
        if path.name not in ("errors.py", "__init__.py")
        for sub in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(sub, (ast.Name, ast.Attribute))
    }
    assert [name for name in defined if name not in named] == []



def test_cli_commands_return_their_reports_and_run_prints_them():
    # run() is the only writer of stdout: a _cmd_* function that calls print
    # or json.dumps, reads an option's .json, or touches sys.stdout or
    # sys.stderr in any way renders or writes a report of its own
    src = pathlib.Path(ghzcert.__file__).parent
    tree = ast.parse((src / "cli.py").read_text())
    commands = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")
    ]
    rendering = []
    for command in commands:
        for sub in ast.walk(command):
            if isinstance(sub, ast.Call):
                name = ast.unparse(sub.func)
                if name in ("print", "json.dump", "json.dumps"):
                    rendering.append(f"{command.name}: {name}")
            elif isinstance(sub, ast.Attribute) and (
                sub.attr == "json" or ast.unparse(sub) in ("sys.stdout", "sys.stderr")
            ):
                rendering.append(f"{command.name}: {ast.unparse(sub)}")
    assert len(commands) == 6
    assert rendering == []
