"""Module boundaries of the package."""

import ast
import dataclasses
import importlib
import sys
from pathlib import Path

import numpy as np

import strandcode as sc
from strandcode import _bitops, blocks, constrained, outer, positioning, sd_encoder

PACKAGE = Path(sc.__file__).parent


def _private_sibling_imports(path: Path) -> list[str]:
    """Underscore names a module imports from its sibling modules.

    ``from . import _bitops`` names the shared bit-kernel module itself and
    is allowed; any other underscore name is private to the module that
    defines it.
    """
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom) or node.level == 0:
            continue
        for alias in node.names:
            if not alias.name.startswith("_"):
                continue
            if node.module is None and alias.name == "_bitops":
                continue
            found.append(f"{node.module or ''}.{alias.name}")
    return found


def test_no_module_imports_private_names_from_a_sibling():
    offenders = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := _private_sibling_imports(path))
    }
    assert offenders == {}


def test_the_oracle_imports_nothing_from_the_bit_kernels():
    # an oracle that cut or compared windows with the fast paths' kernels
    # would share their faults
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE / "oracle.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
    assert not any("_bitops" in name for name in imported)


def _imports_oracle(tree: ast.AST) -> bool:
    """Whether a module imports the oracle module or a name from it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
            names.append(node.module or "")
        else:
            continue
        if any(name.split(".")[-1] == "oracle" for name in names):
            return True
    return False


def test_only_the_front_ends_import_the_oracle():
    # a production path that called an oracle would share code with the
    # check meant to test it; the CLI's verify commands and the package's
    # exports are the oracle's only users
    found = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in ("cli.py", "__init__.py") and _imports_oracle(ast.parse(path.read_text()))
    ]
    assert found == []
    for text in (
        "from .oracle import check_p123", "from . import oracle",
        "import strandcode.oracle", "from strandcode.oracle import bound_single",
    ):
        assert _imports_oracle(ast.parse(text)), text
    assert not _imports_oracle(ast.parse("from .bitseq import BitSeq"))


def test_pigeonhole_parts_are_cut_only_in_the_bit_kernels():
    # one part index serves every exact near-match search; a second cut of
    # the parts elsewhere could drift from its pigeonhole invariant, and
    # bit_field was the cutter of a part key from a packed row
    cutters = {"_part_slices", "part_keys", "bit_field"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "_bitops.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in cutters
        or isinstance(node, ast.Name) and node.id in cutters
        or isinstance(node, ast.alias) and node.name in cutters
    ]
    assert found == []


def test_no_module_reads_the_environment():
    # a setting read from the environment is an option no test or
    # benchmark run sees
    reads = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
        or isinstance(node, ast.alias) and node.name in ("environ", "getenv")
    ]
    assert reads == []




REPO = Path(__file__).resolve().parents[1]


def _trees(*dirs: str):
    for d in dirs:
        for path in sorted((REPO / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _local_names(fn: ast.AST) -> set[str]:
    """Names a function's parameters or assignments bind."""
    return {
        node.arg if isinstance(node, ast.arg) else node.id
        for node in ast.walk(fn)
        if isinstance(node, ast.arg)
        or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }


_MUTATORS = {"append", "add", "update", "setdefault", "extend", "insert"}


def _is_container(value: ast.AST) -> bool:
    """Whether a module-level value is a mutable dict, list or set."""
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(value, ast.BinOp):  # [0] * 512
        return _is_container(value.left) or _is_container(value.right)
    return isinstance(value, ast.Call) and getattr(value.func, "id", None) in ("dict", "list", "set")


def _module_container_fills(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of every store into a module-level container inside a
    function, except in the functions the module calls at import."""
    containers = {
        target.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None
        and _is_container(node.value)
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    }
    at_import = {
        node.func.id
        for stmt in tree.body
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for node in ast.walk(stmt)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name in at_import:
            continue
        module_level = containers - _local_names(fn)
        for node in ast.walk(fn):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                target = node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in _MUTATORS:
                target = node.func.value
            else:
                continue
            if isinstance(target, ast.Name) and target.id in module_level:
                found.append((node.lineno, target.id))
    return found


def test_no_function_fills_a_module_level_container():
    # the benchmark times set-up from cold caches by calling cache_clear on
    # every cache it finds; a container filled at run time is a cache that
    # survives, so set-up would time warm tables
    fills = [
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in _module_container_fills(ast.parse(path.read_text()))
    ]
    assert fills == []


def test_the_container_check_sees_a_hand_rolled_cache():
    tree = ast.parse(
        "_SEEN = {}\n_LOG = [0] * 4\n_T = dict()\n"
        "def _fill():\n    _LOG[0] = 1\n_fill()\n"
        "def f(k):\n    _SEEN[k] = 1\n    _T.setdefault(k, 2)\n"
        "def g(_SEEN):\n    _SEEN[0] = 1\n"
    )
    assert _module_container_fills(tree) == [(8, "_SEEN"), (9, "_T")]


def _loads(node: ast.AST, local: frozenset = frozenset()):
    """Every bare name and attribute a module loads, which is how code
    reaches a function.  Imports, ``__all__`` strings and names a store
    binds are not uses, and inside a function a bare name that its
    parameters or assignments bind is that local, not a function."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        local = local | _local_names(node)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        if node.id not in local:
            yield node.id
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _loads(child, local)


def test_every_function_in_the_package_is_referenced():
    # the benchmark reaches its traced layers by dotted attribute paths
    refs = {part for _, _, path in _perfbench_layers() for part in path.split(".")}
    defined = []
    for path, tree in _trees("src", "tests", "perfbench"):
        refs.update(_loads(tree))
        if path.parent == REPO / "src" / "strandcode":
            defined += [
                f"{path.name}:{node.lineno} {node.name}"
                for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (node.name.startswith("__") and node.name.endswith("__"))
            ]
    unused = [d for d in defined if d.rpartition(" ")[2] not in refs]
    assert unused == []


def _perfbench_layers() -> tuple:
    """The (name, module, attribute path) rows of ``LAYERS`` in
    perfbench/layers.py, read from its source."""
    tree = ast.parse((REPO / "perfbench" / "layers.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/layers.py defines no LAYERS")


def test_every_traced_layer_resolves_to_a_package_attribute():
    layers = _perfbench_layers()
    assert len(layers) > 10
    for name, module, path in layers:
        obj = importlib.import_module(f"strandcode.{module}")
        for part in path.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name


def _count_calls(monkeypatch, fn) -> list:
    """Wrap ``fn`` under every package attribute that refers to it, as the
    benchmark's tracer does; the returned list grows by one per call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("strandcode"):
            for key, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, key, counting)
    return calls


def _decodes():
    """Decode calls, each with its read count: a strict trace decode, a
    lenient RS decode fed junk reads, and a multi-strand decode."""
    rng = np.random.default_rng(3)
    p = sc.derive_trace_params(4320, 1, L_min=90, L_over=85, I=4, r_I=16, K=8)
    book = sc.trace_book(p)
    cfg = sc.ChannelConfig(
        L_min=90, L_over=85, e=1, seed=1, error_mode="reliable-preserving", max_len=120
    )
    w = sc.encode_trace(sc.BitSeq.random(sc.trace_message_len(p), rng), p, book)
    clean = sc.corrupt(sc.fragment(w, cfg), cfg).strip_truth()
    w = sc.encode_trace_rs(sc.BitSeq.random(sc.trace_rs_message_len(p, 1), rng), p, 1, book)
    junk = tuple(sc.Fragment(sc.BitSeq.random(100, rng)) for _ in range(5))
    tr = sc.corrupt(sc.fragment(w, cfg), cfg).strip_truth()
    laden = dataclasses.replace(tr, fragments=tr.fragments + junk)
    mp = sc.derive_multi_gamma0_params(1100, 8, 1, L_min=110, K=32, r_I=18)
    mbook = sc.multi_gamma0_book(mp)
    per = sc.multi_gamma0_message_len(mp) // mp.k
    ss = sc.multi_gamma0_encode(tuple(sc.BitSeq.random(per, rng) for _ in range(mp.k)), mp, mbook)
    pooled = sc.fragment_strands(ss, sc.ChannelConfig(L_min=110, L_over=0, seed=2)).strip_truth()
    return [
        ("reconstruct_trace", len(clean.fragments), lambda: sc.reconstruct_trace(clean, p, book)),
        ("reconstruct_trace_rs", len(laden.fragments),
         lambda: sc.reconstruct_trace_rs(laden, p, 1, book)),
        ("multi_gamma0_decode", len(pooled.fragments),
         lambda: sc.multi_gamma0_decode(pooled, mp, mbook)),
    ]


def test_decoders_reach_the_positioning_layers_once_per_batch(monkeypatch):
    # the benchmark traces these two functions by name; a decoder that
    # stops calling them hides its positioning cost, and one that calls
    # them per read has lost its batch
    marker = _count_calls(monkeypatch, positioning.find_marker)
    index = _count_calls(monkeypatch, positioning.locate_index)
    for name, reads, decode in _decodes():
        marker.clear()
        index.clear()
        decode()
        assert reads > 40, name
        # the leading windows, then at most one batch of later windows
        assert 1 <= len(marker) <= 2, name
        assert 1 <= len(index) <= 2, name


def test_the_gamma0_encoder_reaches_each_batch_layer_once(monkeypatch):
    # the benchmark traces ConstrainedCodec.encode by name and fails a
    # traced run that never reaches it; one payload batch and one marker
    # scan per strand set is the batch, and a call per block or per strand
    # has lost it
    p = sc.derive_multi_gamma0_params(1100, 32, 1, L_min=110, K=32, r_I=18)
    book = sc.multi_gamma0_book(p)
    rng = np.random.default_rng(4)
    per = sc.multi_gamma0_message_len(p) // p.k
    messages = tuple(sc.BitSeq.random(per, rng) for _ in range(p.k))
    sc.multi_gamma0_encode(messages, p, book)  # fills the codec and tail caches
    encode, real = [], constrained.ConstrainedCodec.encode

    def counting(self, msg):
        encode.append(1)
        return real(self, msg)

    monkeypatch.setattr(constrained.ConstrainedCodec, "encode", counting)
    scans = _count_calls(monkeypatch, blocks.marker_offenders)
    sc.multi_gamma0_encode(messages, p, book)
    assert p.k * p.strand_blocks == 320
    assert len(encode) == 1
    assert len(scans) == 1


def test_the_sd_rewrite_loop_packs_the_word_once(monkeypatch):
    # the primal scan keeps its windows and its index across rewrites; a
    # loop that searches the whole word again on each rewrite is quadratic
    # on a repetitive word
    n, d = 2048, 1
    p = sc.derive_sd_params(n, d)
    w = constrained.codec(p.zero_len, d, p.inner_len).encode(sc.BitSeq.zeros(p.n_prime))
    packed, real = [], _bitops.packed_windows

    def packing(bits, L):
        packed.append(bits.size)
        return real(bits, L)

    def listing(*args):
        raise AssertionError("the rewrite loop listed every close pair")

    monkeypatch.setattr(_bitops, "packed_windows", packing)
    monkeypatch.setattr(_bitops, "close_pairs", listing)
    trace = []
    sd_encoder.eliminate_close_pairs(w, p, trace=trace)
    assert len(trace) == 94
    assert packed[0] == p.inner_len
    # after that, each rewrite repacks the windows around its record only
    assert len(packed) == 1 + len(trace)
    assert max(packed[1:]) < 3 * p.L1


def test_the_word_unrank_builds_its_word_once(monkeypatch):
    # one word is one buffer: a walk that joins a BitSeq per chunk copies
    # the word so far at every chunk boundary
    p = sc.derive_sd_params(65537, 3)
    codecs = [
        constrained.codec(15, 3, 300),
        constrained.codec(8, 3, 160, 47),
        constrained.codec(p.zero_len, 3, p.inner_len),
    ]
    assert [len(c.chunk_lengths) for c in codecs] == [1, 4, 128]
    rng = np.random.default_rng(6)
    msgs = [sc.BitSeq.random(c.msg_len, rng) for c in codecs]
    built, real = [], sc.BitSeq.__init__

    def building(self, value, length):
        built.append(length)
        real(self, value, length)

    def joining(self, other):
        raise AssertionError("the word unrank joined two BitSeqs")

    monkeypatch.setattr(sc.BitSeq, "__init__", building)
    monkeypatch.setattr(sc.BitSeq, "__add__", joining)
    for c, msg in zip(codecs, msgs):
        built.clear()
        c.encode(msg)
        assert built == [c.n_out]


def _flag_takers(tree: ast.AST, flag: str = "lenient") -> list[int]:
    """Lines of the functions and lambdas with a parameter named ``flag``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        and any(arg.arg == flag for arg in ast.walk(node.args) if isinstance(arg, ast.arg))
    ]


def test_no_function_takes_a_lenient_flag():
    # every decode runs one pass and records what it dropped; strict
    # decoding is a verdict over that record, not a mode of each stage
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _flag_takers(ast.parse(path.read_text()))
    ]
    assert found == []


def test_no_function_takes_a_strict_flag():
    # a derive records its violations and never raises them; whether params
    # are feasible is the one verdict require_feasible, not a mode of each
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _flag_takers(ast.parse(path.read_text()), "strict")
    ]
    assert found == []


def test_the_flag_check_sees_every_kind_of_parameter():
    tree = ast.parse(
        "def f(a, lenient): pass\n"
        "def g(*, lenient=False): pass\n"
        "h = lambda lenient: 0\n"
        "def k(a, strict=True): lenient = a\n"
        "def m(*, strict=False): strict = 1\n"
        "s = lambda strict: 0\n"
    )
    assert _flag_takers(tree) == [1, 2, 3]
    assert _flag_takers(tree, "strict") == [4, 5, 6]


def _constructions(tree: ast.AST, name: str) -> list[int]:
    """Lines of the calls to ``name``, by bare name or attribute."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == name or getattr(node.func, "attr", None) == name)
    ]


def test_only_the_verdict_raises_infeasible_parameters():
    # every failed inequality, the outer code's included, is a named
    # violation on the params, and require_feasible is the one verdict
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "errors.py"
        for line in _constructions(ast.parse(path.read_text()), "InfeasibleParameters")
    ]
    assert found == []
    assert _constructions(ast.parse("raise e.InfeasibleParameters('x')"), "InfeasibleParameters")


def _book_handlers(tree: ast.AST) -> set[str]:
    """Functions that compare a ``book`` with None or read a book's
    ``K_marker``: they pick the book a call runs on, or check it."""
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Compare) and getattr(node.left, "id", None) == "book"
                and any(getattr(c, "value", 0) is None for c in node.comparators)
                or isinstance(node, ast.Attribute) and node.attr == "K_marker"
            ):
                found.add(fn.name)
    return found


def test_books_are_picked_and_checked_only_by_the_guard():
    # an entry point that picked its book by hand could skip the check
    # that a passed book matches its params
    found = {
        f"{path.name}:{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "positioning.py"  # where a book is built and read
        for name in _book_handlers(ast.parse(path.read_text()))
    }
    assert found == {"blocks.py:checked_book"}
    tree = ast.parse("def f(book):\n    return book if book is not None else 0\n")
    assert _book_handlers(tree) == {"f"}


def _callers(tree: ast.AST, name: str) -> set[str]:
    """Innermost functions around the calls to ``name``, by bare name or
    attribute, with ``<module>`` for a call outside every function."""
    found = set()

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and name in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        ):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_only_the_cached_constructor_builds_a_codec():
    # every weight-limited string in the package comes from one cache, so
    # the benchmark's timed-loop miss check on it covers every codec
    found = {
        f"{path.name}:{owner}"
        for path in sorted(PACKAGE.glob("*.py"))
        for owner in _callers(ast.parse(path.read_text()), "ConstrainedCodec")
    }
    assert found == {"constrained.py:codec"}
    tree = ast.parse(
        "c = m.ConstrainedCodec(1, 1, 1)\n"
        "def f():\n"
        "    def g():\n"
        "        return ConstrainedCodec(2, 1, 2)\n"
    )
    assert _callers(tree, "ConstrainedCodec") == {"<module>", "g"}
    assert importlib.import_module("strandcode.trace_codes")._codec is constrained.codec
    for gone in ("wwl_capacity", "wwl_encode", "wwl_decode"):
        assert not hasattr(constrained, gone) and not hasattr(sc, gone)
    assert not hasattr(sd_encoder, "_inner_codec")


def _lru_caches(tree: ast.AST) -> set[str]:
    """Functions decorated with ``lru_cache``, called or bare, by name or
    as ``functools.lru_cache``."""
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for dec in node.decorator_list
        if "lru_cache" in (
            getattr(getattr(dec, "func", dec), "id", None),
            getattr(getattr(dec, "func", dec), "attr", None),
        )
    }


def test_the_constrained_codec_holds_one_count_table_per_constraint():
    # one cache builds every view of an automaton's counts, so no reader
    # grows its own copy of the table and no set-up hook has to warm one
    tree = ast.parse((PACKAGE / "constrained.py").read_text())
    assert _lru_caches(tree) == {"_automaton", "_counts", "codec"}
    tree = ast.parse(
        "@lru_cache(maxsize=4)\ndef a(): pass\n"
        "@functools.lru_cache\ndef b(): pass\n"
        "@cached_property\ndef c(self): pass\n"
        "class K:\n    @lru_cache\n    def d(self): pass\n"
    )
    assert _lru_caches(tree) == {"a", "b", "d"}
    gone = ("_count_array", "_count_words", "_count_table", "_zero_rows", "_moves", "_zero_step")
    for name in gone:
        assert not hasattr(constrained, name), name
    assert not hasattr(constrained.ConstrainedCodec, "_table")


def _outer_policy_reads(tree: ast.AST) -> list[int]:
    """Lines that reach a ``lane_*`` name or read a record's ``rejected``
    blocks: a family doing either decides the outer decode itself."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and (node.attr == "rejected" or node.attr.startswith("lane_"))
        or isinstance(node, ast.Name) and node.id.startswith("lane_")
        or isinstance(node, ast.ImportFrom) and any(a.name.startswith("lane_") for a in node.names)
    )


def test_the_rs_families_reach_the_outer_code_only_through_lanes():
    # outer.lanes is the one place that refuses the outer geometry and tau
    # and holds the decode policy: the rejected blocks are known bad and
    # any correction makes the result unreliable
    for name in ("trace_codes.py", "multistrand.py"):
        tree = ast.parse((PACKAGE / name).read_text())
        assert _outer_policy_reads(tree) == [], name
        assert len(_callers(tree, "lanes")) == 1, name
    tree = ast.parse(
        "from .outer import lane_decode\n"
        "m, fixed = outer.lane_decode(raw, tau, set(record.rejected))\n"
        "n = lane_message_len(4, 1, 8)\n"
    )
    assert _outer_policy_reads(tree) == [1, 2, 2, 3]


def test_one_lane_codec_call_covers_every_lane(monkeypatch):
    # the lanes of a block set are array columns: one Lanes.encode or
    # Lanes.decode is one lane-codec call, with no scalar field arithmetic
    assert not hasattr(outer, "_gf_mul") and not hasattr(outer, "_poly_eval")
    calls = []
    for name in ("_lane_encode", "_lane_decode"):
        real = getattr(outer, name)
        monkeypatch.setattr(outer, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    lanes = outer.Lanes(16, 3, 240)
    m = sc.BitSeq.random(lanes.message_len, np.random.default_rng(3))
    received = lanes.encode(m)
    assert calls == ["_lane_encode"]
    received[4] = sc.BitSeq.zeros(240)
    report = sc.ReconReport(sc.BitSeq.zeros(0), (), (), True)
    record = blocks.DecodeRecord((), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    assert lanes.decode(received, report, record).message == m
    assert calls == ["_lane_encode", "_lane_decode"]


def _definitions(tree: ast.AST) -> set[str]:
    """Names of the functions and classes a module defines, at any depth."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name for node in ast.walk(tree) if isinstance(node, kinds)}


def test_one_decode_pass_merges_the_reads_and_builds_the_record():
    # the trace and γ=0 families only place reads and decode payloads;
    # the merge, the record and the report are built in one pass, and the
    # outer code edits a report with dataclasses.replace
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    for cls in ("DecodeRecord", "ReconReport"):
        found = {f"{name}:{owner}" for name, tree in trees.items() for owner in _callers(tree, cls)}
        assert found == {"blocks.py:decode_reads"}, cls
    gone = {"placed_bits", "merge_placed", "make_report"}
    defined = {name: gone & _definitions(tree) for name, tree in trees.items()}
    assert {name: names for name, names in defined.items() if names} == {}
    tree = ast.parse("class A:\n    def merge_placed(self): pass\n")
    assert _definitions(tree) == {"A", "merge_placed"}
