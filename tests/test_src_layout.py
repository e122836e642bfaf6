"""The package keeps one path per quantity: the dense reference versions
live in tests/oracle.py, and no module under src/kerrmet defines or
imports them again, nor allocates a dim x dim array; the spectral step is
the only eigendecomposition of a state."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kerrmet"
SRC = sorted(PACKAGE.glob("*.py"))

# module-level names that belong to the dense oracle, or were deleted
ORACLE_NAMES = {
    "PureState", "DensityOperator", "expectation", "assemble_blocks",
    "log_falling_factorial", "LossParams", "kraus_amplitude", "kraus_element",
    "apply_loss", "qfi", "sld", "delta_phi", "richardson_rho_prime", "eigh",
    "g_tilde", "generator_diagonal", "generator_h", "apply_phase",
    "superposition_state", "DenseOperator", "BlockStructureError", "block_split",
    "_check_hermitian", "_band_rows", "_entries", "derivative_factors",
    "spectral_norm", "block_entries", "_class_chunks", "CHUNK_ENTRIES",
    "HERMITICITY_ATOL", "_golden_section", "GOLDEN_TOL", "TIE_RTOL", "ReadoutResult",
    "_residue_classes",
}
# methods and fields that belong to the dense oracle, or were deleted
ORACLE_METHODS = {
    ("PhasedFamily", "rho"), ("PhasedFamily", "rho_prime"),
    ("PhasedFamily", "rho_blocks"), ("TwoModeBasis", "state_of"),
    ("PhasedFamily", "rho0"), ("HermitianOperator", "blocks"),
    ("HermitianOperator", "support"), ("ExperimentConfig", "grid_points"),
    ("ExperimentConfig", "max_n"),
}


def _defined_names(tree):
    """Names a module's, or a class's, body defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def test_src_defines_and_imports_no_oracle_name():
    found = []
    for path in SRC:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [(path.name, name) for name in _defined_names(tree)
                  if name in ORACLE_NAMES]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                found += [(path.name, f"import {alias.name}") for alias in node.names
                          if alias.name in ORACLE_NAMES]
            elif isinstance(node, ast.ClassDef):
                found += [(path.name, f"{node.name}.{name}") for name in _defined_names(node)
                          if (node.name, name) in ORACLE_METHODS]
    assert not found


# a (dim, dim) shape over the basis dimension, or a dense identity over it
DENSE_ALLOCATION = re.compile(r"\(\s*((?:\w+\.)*dim)\s*,\s*\1\s*\)"
                              r"|\b(?:eye|identity)\(\s*(?:\w+\.)+dim\b")


def dense_allocations(text: str) -> list[tuple[int, str]]:
    return [(number, line.strip()) for number, line in enumerate(text.splitlines(), 1)
            if DENSE_ALLOCATION.search(line)]


def test_src_allocates_no_dim_by_dim_array():
    found = [(path.name, *hit) for path in SRC for hit in dense_allocations(path.read_text())]
    assert not found


@pytest.mark.parametrize("line", [
    "    out = np.zeros((basis.dim, basis.dim), dtype=complex)",
    "        if self.matrix.shape != (dim, dim):",
    "x = np.empty(( self.basis.dim ,self.basis.dim ))",
    "identity = np.eye(family.basis.dim)",
])
def test_dense_allocation_guard_flags(line):
    assert dense_allocations(line)


@pytest.mark.parametrize("line", [
    "    out = np.zeros(basis.dim, dtype=complex)",
    "    out = np.zeros(block_offsets(n_max)[-1], dtype=complex)",
    "    one_hots = [e for e in np.eye(dim)]",
    "    shape = (dim, length)",
])
def test_dense_allocation_guard_passes(line):
    assert not dense_allocations(line)


def test_src_imports_no_argparse():
    # the CLI reads its flags off the config-field table: argparse, with the
    # gettext and locale it imports, cost every run milliseconds; so did
    # logging, for three debug records no handler would receive, and the
    # dataclass decorators, whose place the plain Record base takes
    code = ("import sys, kerrmet.cli; print(sorted({'argparse', 'gettext', 'locale', "
            "'logging', 'dataclasses'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout == "[]\n"


def test_package_exports_only_names_defined_in_src():
    defined = set()
    for path in SRC:
        defined.update(_defined_names(ast.parse(path.read_text())))
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert exported
    assert not set(exported) - defined
    assert not set(exported) & ORACLE_NAMES


# every np.linalg.eigh or eigvalsh call in the package, by (module,
# enclosing function): the spectral step, whose batched call covers every
# residue class of every block, and the see-saw step, whose batched call
# takes the top eigenvector of the S x S matrix M(L) at every point of a
# lockstep round
EIGH_SITES = [("estimation.py", "_qfi_from_block_pairs"), ("optimizer.py", "_lockstep")]


class _CallSites(ast.NodeVisitor):
    """(module, enclosing top-level function) of each call to one of ``names``."""

    def __init__(self, module, names):
        self.module = module
        self.names = names
        self.scope = []
        self.sites = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        if ast.unparse(node.func).split(".")[-1] in self.names:
            self.sites.append((self.module, self.scope[0] if self.scope else None))
        self.generic_visit(node)


def call_sites(*names):
    sites = []
    for path in SRC:
        visitor = _CallSites(path.name, names)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        sites += visitor.sites
    return sites


def test_eigh_runs_at_one_spectral_site():
    sites = call_sites("eigh", "eigvalsh")
    assert sorted(sites) == EIGH_SITES


def test_only_dyad_terms_reads_the_survival_table():
    # one enumeration of the loss terms: the channel map and the k-scan take
    # theirs from loss.dyad_terms, the one caller of survival_table
    assert call_sites("survival_table") == [("loss.py", "dyad_terms")]


def test_optimizer_runs_the_spectral_step_from_one_site():
    # batched points share one spectral call; a per-point fork of it
    # would need a second call site
    tree = ast.parse((PACKAGE / "optimizer.py").read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and ast.unparse(node.func).split(".")[-1] == "_qfi_from_block_pairs"]
    assert len(calls) == 1



def test_moment_profile_reads_its_weights_off_the_band():
    # the weights come from the band state by state: no class product
    # (O @ O), no sort back into block order, no linear algebra and no
    # residue-class tables; the scale comes from the band's largest amplitude
    tree = ast.parse((PACKAGE / "estimation.py").read_text())
    (method,) = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                 and node.name == "moment_profile"]
    nodes = list(ast.walk(method))
    assert not [node for node in nodes if isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.MatMult)]
    attributes = [node for node in nodes if isinstance(node, ast.Attribute)]
    names = {node.attr for node in attributes} | {
        node.id for node in nodes if isinstance(node, ast.Name)}
    assert not names & {"matmul", "argsort", "_residue_classes", "_block_classes",
                        "_packed_classes"}
    assert not [node for node in attributes if ast.unparse(node.value) == "np.linalg"]


def test_readout_profile_is_real():
    # <O> = a sin u and <O^2> = c + 2f cos 2u in real arithmetic: the
    # profile and its build hold no complex literal, no complex dtype and no
    # complex exponential
    tree = ast.parse((PACKAGE / "estimation.py").read_text())
    scopes = [node for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) and node.name == "MomentProfile"
              or isinstance(node, ast.FunctionDef) and node.name == "moment_profile"]
    assert len(scopes) == 2
    nodes = [node for scope in scopes for node in ast.walk(scope)]
    assert not [node for node in nodes if isinstance(node, ast.Constant)
                and isinstance(node.value, complex)]
    assert "complex" not in {node.id for node in nodes if isinstance(node, ast.Name)}
    assert not [node for node in nodes if isinstance(node, ast.Call)
                and ast.unparse(node.func).split(".")[-1] == "exp"]


def test_k_scan_builds_no_family():
    # the k-scan packs each k's channel-map terms itself: no PhasedFamily,
    # and so no flat buffer, per k
    tree = ast.parse((PACKAGE / "estimation.py").read_text())
    scans = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
             and node.name in ("qfi_over_k", "max_qfi_over_k")]
    assert len(scans) == 2
    assert "PhasedFamily" not in {node.id for scan in scans for node in ast.walk(scan)
                                  if isinstance(node, ast.Name)}


def test_k_scan_builds_no_channel_map():
    # the k-scan takes each k's terms from loss.dyad_terms and packs them
    # into classes itself: no ChannelMap, and so no flat positions, per k
    tree = ast.parse((PACKAGE / "estimation.py").read_text())
    scopes = [node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == "qfi_over_k"
              or isinstance(node, ast.ClassDef) and node.name == "KScanPairs"]
    assert len(scopes) == 2
    assert "ChannelMap" not in {node.id if isinstance(node, ast.Name) else node.attr
                                for scope in scopes for node in ast.walk(scope)
                                if isinstance(node, (ast.Name, ast.Attribute))}
