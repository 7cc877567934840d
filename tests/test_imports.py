"""The package imports with only its declared dependencies, each name
has one import path, and its public surface is pinned.

``pyproject.toml`` declares numpy alone, so ``import repro`` must not
pull in anything else — scipy in particular, which only the test-side
reference solver (``tests/core/reference_solver.py``) uses.

Every subpackage ``__init__`` is its docstring alone: a name is
imported from the module that defines it (``repro`` itself keeps the
quick-start façade).  Each registry is complete as soon as its reader
is imported, whatever else the process has loaded, which the
fresh-interpreter tests below check.

``PUBLIC_NAMES`` is the distinct union of every ``repro`` module's
``__all__``.  A name that enters or leaves the public API shows up as a
diff of that list, and each name must be reached by code outside
``tests/``: a helper only the tests call lives in ``tests/``.  No class
in src writes its own JSON beside the report codec, bar two on purpose.
"""

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
REPO = SRC.parent
REPORT_FIXTURES = Path(__file__).parent / "streaming" / "fixtures" / "reports"


def _fresh(code: str) -> str:
    """stdout of ``code`` run in a new interpreter that imports from src."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    return result.stdout.strip()


def test_import_repro_leaves_scipy_unloaded():
    assert _fresh("import sys, repro; print('scipy' in sys.modules)") == "False"


def test_linter_runs_without_numpy():
    """``python -m repro.analysis`` is stdlib-only: with numpy blocked,
    importing ``repro`` (the façade loads its names on first access)
    and linting ``src`` still works and finds nothing."""
    out = _fresh(
        "import runpy, sys; "
        "sys.modules['numpy'] = None; "
        f"sys.argv = ['repro.analysis', {str(SRC)!r}, '--json']; "
        "runpy.run_module('repro.analysis', run_name='__main__')"
    )
    report = json.loads(out)
    assert report["files"] > 0
    assert report["findings"] == []


def test_facade_names_load_on_first_access():
    loaded = _fresh(
        "import sys, repro; before = 'numpy' in sys.modules; "
        "listed = 'FrameContext' in dir(repro); "
        "from repro import *; "
        "print(before, listed, FrameContext.__module__)"
    )
    assert loaded == "False True repro.codecs.context"


@pytest.mark.parametrize(
    "init", sorted(SRC.glob("repro/*/__init__.py")), ids=lambda p: p.parent.name
)
def test_subpackage_init_is_its_docstring_alone(init):
    (node,) = ast.parse(init.read_text()).body
    assert isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    assert isinstance(node.value.value, str)


def test_only_the_facade_re_exports():
    """No module but ``repro`` lists an imported name in its ``__all__``."""
    for path in sorted(SRC.glob("repro/**/*.py")):
        if path == SRC / "repro" / "__init__.py":
            continue
        body = ast.parse(path.read_text()).body
        imported = {
            alias.asname or alias.name
            for node in body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        exported = {
            element.value
            for node in body
            if isinstance(node, ast.Assign)
            and any(getattr(target, "id", None) == "__all__" for target in node.targets)
            for element in node.value.elts
        }
        assert not exported & imported, f"{path.relative_to(SRC)} re-exports"


def test_codec_registry_is_complete_on_its_own():
    names = _fresh(
        "from repro.codecs.registry import available_codecs, streaming_codec_names; "
        "print(','.join(available_codecs()), ','.join(streaming_codec_names()))"
    )
    assert names.split() == [
        "nocom,bd,png,scc,perceptual,variable-bd,temporal-bd",
        "raw,bd,perceptual,variable-bd",
    ]


def test_report_reader_loads_every_fixture_on_its_own():
    loaded = _fresh(
        "import pathlib; "
        "from repro.streaming.reports import report_from_json; "
        f"paths = pathlib.Path({str(REPORT_FIXTURES)!r}).glob('*.json'); "
        "print(len([report_from_json(p.read_text()) for p in paths]))"
    )
    assert loaded == "17"


def test_lint_catalog_is_complete_on_its_own():
    rules = _fresh(
        "from repro.analysis.driver import rule_catalog; "
        "print(' '.join(rule_id for rule_id, _ in rule_catalog()))"
    )
    assert rules.split() == [
        "RPR101", "RPR102", "RPR103", "RPR104",
        "RPR201", "RPR202", "RPR203",
        "RPR301", "RPR302", "RPR303",
        "RPR401",
    ]


#: ``from repro... import ...`` in a doc, single-line or parenthesized.
_DOC_IMPORT = re.compile(r"^\s*from (repro[\w.]*) import (\([^)]*\)|[^\n(]+)$", re.M)


def _doc_imports():
    """(doc, module, name) for every import snippet in README.md and
    docs/*.md, except the migration guide, whose tables show old paths."""
    docs = [REPO / "README.md"] + sorted((REPO / "docs").glob("*.md"))
    for doc in docs:
        if doc.name == "migration.md":
            continue
        for match in _DOC_IMPORT.finditer(doc.read_text()):
            for item in match.group(2).strip("()").split(","):
                name = item.split(" as ")[0].strip()
                if name:
                    yield doc.name, match.group(1), name


def test_doc_import_snippets_resolve():
    imports = list(_doc_imports())
    assert imports
    for doc, module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{doc}: {module}.{name}"


def _public_modules():
    """``repro`` and every module under it, except the ``__main__`` entry
    points, which run the CLI when imported."""
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rsplit(".", 1)[-1] != "__main__":
            yield importlib.import_module(info.name)


PUBLIC_NAMES = (
    "AblationResult",
    "Ack",
    "AdaptationState",
    "AdaptiveResult",
    "AdaptiveSessionReport",
    "AdaptiveStats",
    "AnalysisReport",
    "ArqPolicy",
    "AxisAdjustment",
    "BASELINE_NAMES",
    "BASE_FIELD_BITS",
    "BDCodec",
    "BDCostCodec",
    "Backoff",
    "BandwidthResult",
    "BandwidthTrace",
    "BitsResult",
    "BrokenPoolError",
    "BufferController",
    "Bye",
    "CASE2_PLACEMENTS",
    "CAUConfig",
    "CAUModel",
    "CONTROLLER_CHOICES",
    "CaseResult",
    "ChannelExtrema",
    "ChaosConfig",
    "ChaosInjector",
    "ClientConfig",
    "ClientReport",
    "ClientRollup",
    "Codec",
    "CohortFleetReport",
    "CohortFleetResult",
    "CohortSpec",
    "CohortSummary",
    "ControllerContext",
    "DEFAULT_FLEET_CODECS",
    "DEFAULT_FOVEAL_RADIUS_DEG",
    "DEFAULT_LADDER_SPEC",
    "DEFAULT_SCC_ECCENTRICITY",
    "DEFAULT_SCENE",
    "DEFAULT_TILE_SIZES",
    "DETERMINISTIC_PACKAGES",
    "DIMENSIONS",
    "DKL_TO_RGB",
    "DRAM_ENERGY_PER_BIT_J",
    "DRAM_ENERGY_PER_PIXEL_PJ",
    "DarkAdaptationResult",
    "DarkAdaptedModel",
    "DiscriminationModel",
    "DisplayGeometry",
    "DropSkipPolicy",
    "ENCODER_CHOICES",
    "EXPERIMENTS",
    "EllipsoidAtlas",
    "EllipsoidLawParameters",
    "EncodedFrame",
    "Event",
    "ExperimentConfig",
    "FADE_PERIOD_S",
    "FRAME_READY",
    "FairShareScheduler",
    "FecPolicy",
    "Fig14Result",
    "Finding",
    "FixedController",
    "FixedPointSpec",
    "FleetReport",
    "FleetResult",
    "FlickerReport",
    "FlickerResult",
    "FoveationConfig",
    "FoveationResult",
    "Frame",
    "FrameBank",
    "FrameContext",
    "FrameResult",
    "FrameTiming",
    "GazeLatencyResult",
    "GazeSample",
    "HEADER_BITS",
    "HardwareResult",
    "Hello",
    "KERNEL_MODULES",
    "KERNEL_PRAGMA",
    "LINEAR_THRESHOLD",
    "LOSS_SPEC_KINDS",
    "LinkScheduler",
    "LoadgenClientReport",
    "LoadgenConfig",
    "LoadgenReport",
    "LossRuntime",
    "LossStats",
    "LossTrace",
    "MAX_BODY_BYTES",
    "MODE_FIELD_BITS",
    "Message",
    "MessageDecoder",
    "ModuleContext",
    "NoComCodec",
    "OMIT_DEFAULT",
    "ObserverProfile",
    "OperatingPoint",
    "OptimizedTiles",
    "PAPER_CONSTANTS",
    "PNGCostCodec",
    "PNGEncoded",
    "PROTOCOL_MAGIC",
    "PROTOCOL_VERSION",
    "PSNRResult",
    "ParametricEllipsoidLaw",
    "ParametricModel",
    "PerceptualCodec",
    "PipelineConfig",
    "PipelineStats",
    "PowerCell",
    "PowerResult",
    "PrecomputedSource",
    "PriorityScheduler",
    "ProtocolError",
    "PsychometricParameters",
    "QUEST2_DISPLAY",
    "QUEST2_HIGH_RESOLUTION",
    "QUEST2_LOW_RESOLUTION",
    "QUEST2_REFRESH_RATES",
    "QualityLadder",
    "QualityRung",
    "QuantileSketch",
    "RBFModel",
    "RBFNetwork",
    "RECOVERY_CHOICES",
    "REPORT_FORMAT_VERSION",
    "RGB_TO_DKL",
    "RateController",
    "RateDistortionResult",
    "RecoveryPolicy",
    "RecoveryResult",
    "Report",
    "Rule",
    "SCCCodec",
    "SCENE_NAMES",
    "SCHEDULER_CHOICES",
    "SRGB_THRESHOLD",
    "SUFFIX_DIMENSION",
    "SYSTEM_POWER_REFERENCE_W",
    "ScaledModel",
    "Scene",
    "SceneBandwidth",
    "SceneBits",
    "SceneCases",
    "SceneOutcome",
    "ScenePSNR",
    "ServeConfig",
    "ServedClientReport",
    "ServerReport",
    "SessionReport",
    "SimulatedObserver",
    "SizeBreakdown",
    "StreamOutcome",
    "StreamServer",
    "StreamSetup",
    "StreamSpec",
    "StreamingEngine",
    "StreamingResult",
    "StudyConfig",
    "StudyResult",
    "Summary",
    "TRACE_SPEC_KINDS",
    "TRANSMIT_DONE",
    "TRANSMIT_START",
    "TemporalBDAccountant",
    "TemporalBDCodec",
    "ThroughputController",
    "TileGrid",
    "TileSweepResult",
    "UNCOMPRESSED_BPP",
    "VariableBDCodec",
    "VariableBDCostCodec",
    "VariableBDResult",
    "VariableEncodedFrame",
    "WIDTH_FIELD_BITS",
    "WIFI6_LINK",
    "WIGIG_LINK",
    "Welcome",
    "WirelessLink",
    "__version__",
    "adjust_tiles",
    "adjust_tiles_fixed_point",
    "available_codecs",
    "bd_breakdown",
    "bd_stream_bytes",
    "bits_to_bytes",
    "build_fleet_clients",
    "build_fleet_cohorts",
    "bytes_to_bits",
    "calibrated_model",
    "channel_extrema",
    "channel_halfwidth",
    "check_file",
    "check_source",
    "collect_files",
    "default_model",
    "delta_widths",
    "describe",
    "dotted_name",
    "dram_traffic_power_w",
    "draw_box",
    "draw_disk",
    "encode_batch",
    "encode_client_streams",
    "encode_message",
    "encode_rung_streams",
    "encode_scene_streams",
    "encode_srgb8",
    "encode_stereo_bits",
    "encoder_for",
    "ensure_color_array",
    "filler_payload",
    "flicker_report",
    "format_table",
    "foveated_bd_bits",
    "fractal_noise",
    "frames_within_window",
    "gather_field_runs",
    "gather_fields",
    "get_codec",
    "get_controller",
    "get_recovery_policy",
    "get_scene",
    "get_scheduler",
    "green_masking_factor",
    "grid_cover",
    "group_delta_widths",
    "jnd_radius",
    "linear_to_srgb",
    "loadgen_main",
    "mahalanobis",
    "main",
    "mix_noise",
    "modeled_encode_time_s",
    "modulate",
    "mse",
    "optimize_tiles",
    "pack_fields",
    "pack_segments",
    "parse_chaos_spec",
    "parse_hex",
    "parse_loss_spec",
    "parse_trace_spec",
    "pe_count_for_gpu",
    "plan_member_links",
    "png_compressed_bits",
    "png_decode",
    "png_encode",
    "png_filter_rows",
    "png_unfilter_rows",
    "power_saving_w",
    "psnr",
    "quantize_fixed",
    "register_rule",
    "relative_luminance",
    "reliability_factor",
    "render_eval_frames",
    "render_scene",
    "report_from_dict",
    "report_from_json",
    "report_to_dict",
    "report_to_json",
    "resolve_codec_name",
    "rule_catalog",
    "run",
    "run_axis_ablation",
    "run_dark_adaptation",
    "run_fleet",
    "run_flicker",
    "run_fovea_ablation",
    "run_foveation_comparison",
    "run_gaze_latency",
    "run_loadgen",
    "run_plane_ablation",
    "run_rate_distortion",
    "run_streaming",
    "run_tasks",
    "run_user_study",
    "run_variable_bd",
    "saccade_trace",
    "sample_colors",
    "sample_population",
    "scatter_field_runs",
    "scatter_fields",
    "scc_bits_per_pixel",
    "scene_exceedance",
    "serve_main",
    "simulate_adaptive_session",
    "simulate_cohort_fleet",
    "simulate_fleet",
    "simulate_frame",
    "simulate_session",
    "sliding_field_values",
    "solo_sustainable_fps",
    "srgb_to_linear",
    "streaming_codec_name",
    "streaming_codec_names",
    "summarize",
    "temporal_delta_widths",
    "tile_bd_bits",
    "tile_frame",
    "tile_scalar_field",
    "tracer_seed",
    "unit_of",
    "unit_of_node",
    "unpack_fields",
    "untile_frame",
    "validate_backoff",
    "validate_burst_length",
    "validate_finite",
    "validate_probability",
    "validate_stream_timing",
    "validate_stream_window",
    "value_noise",
    "variable_bd_breakdown",
    "variable_bd_stream_bytes",
    "vertical_gradient",
    "write_png",
)


def test_public_names_are_pinned():
    exported = set()
    for module in _public_modules():
        exported.update(getattr(module, "__all__", ()))
    assert list(PUBLIC_NAMES) == sorted(PUBLIC_NAMES)
    assert sorted(exported) == list(PUBLIC_NAMES)


def test_every_exported_name_resolves():
    for module in _public_modules():
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


#: The trees whose code may reach a public name: everything but tests.
_REACHING_TREES = ("src", "examples", "benchmarks", "perfbench")

#: Public names that only the tests reach, each kept on purpose.
_UNREACHED_ON_PURPOSE = {
    "png_decode": "the receiving side's PNG decoder (ROADMAP item 7)",
    "bd_stream_bytes": "the receiving side's BD stream reader (ROADMAP item 7)",
    "variable_bd_stream_bytes": "the receiving side's variable-BD stream reader (ROADMAP item 7)",
    "group_delta_widths": "the receiving side's variable-BD width decoder (ROADMAP item 7)",
    "__version__": "the package version, read by users, not by code",
}


def _assigned(node: ast.stmt) -> set[str]:
    """Names a top-level (annotated) assignment binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        targets = []
    return {target.id for target in targets if isinstance(target, ast.Name)}


def _defines(node: ast.stmt) -> set[str]:
    """Names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    return _assigned(node)


def _named(node: ast.AST) -> str | None:
    """The name ``node`` refers to: a name, an attribute, an import, or a
    string that is a name or ends in ``:name`` or ``.name``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rsplit(".", 1)[-1]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return re.split(r"[:.]", node.value)[-1]
    return None


def _unreached_public_names(root: Path) -> list[str]:
    """Names in some ``__all__`` under ``root/src`` that no code in the
    reaching trees names outside the name's own top-level definition,
    an ``__all__`` or the façade map of ``repro/__init__.py``."""
    public: set[str] = set()
    reached: set[str] = set()
    for tree in _REACHING_TREES:
        for path in sorted((root / tree).rglob("*.py")):
            facade = path == root / "src" / "repro" / "__init__.py"
            for node in ast.parse(path.read_text()).body:
                if "__all__" in _assigned(node):
                    if tree == "src":
                        public.update(element.value for element in node.value.elts)
                    continue
                if facade and "_FACADE" in _assigned(node):
                    continue
                own = _defines(node)
                reached.update(
                    name for sub in ast.walk(node)
                    if (name := _named(sub)) is not None and name not in own
                )
    return sorted(public - reached - set(_UNREACHED_ON_PURPOSE))


def test_no_public_name_is_reached_only_by_tests():
    """A public name that no src, example, benchmark or perfbench code
    names is a test-only helper: it belongs in ``tests/``, or nowhere."""
    assert _unreached_public_names(REPO) == []


#: Classes in src that keep a hand-written JSON mapping, each on purpose.
_HAND_WRITTEN_JSON = {
    "QuantileSketch": "merges its pending batches into the centroids before it "
    "writes; a field form would merge on every add and move the cohort pins",
    "AnalysisReport": "the linter's --json layout, whose keys are not its field names",
}


def _hand_written_json_classes(root: Path) -> list[str]:
    """Classes under ``root/src`` that define ``to_dict`` or ``from_dict``,
    less the allow-list."""
    found = set()
    for path in sorted((root / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(item, ast.FunctionDef)
                and item.name in ("to_dict", "from_dict")
                for item in node.body
            ):
                found.add(node.name)
    return sorted(found - set(_HAND_WRITTEN_JSON))


def test_json_bodies_go_through_the_report_codec():
    """A dataclass's JSON is its fields, written and read by
    ``repro.streaming.reports``; a per-class ``to_dict``/``from_dict``
    is a second serializer to keep in step."""
    assert _hand_written_json_classes(REPO) == []


def test_pyproject_reads_the_package_version():
    """One version number: ``pyproject.toml`` states none of its own and
    reads ``repro.__version__``.  A regex, not ``tomllib``, which
    Python 3.10 lacks."""
    text = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    assert not re.search(r"(?m)^\s*version\s*=\s*['\"]", text)
    assert re.search(r"(?m)^dynamic\s*=\s*\[\s*\"version\"\s*\]", text)
    assert re.search(r"(?m)^version\s*=\s*\{\s*attr\s*=\s*\"repro\.__version__\"\s*\}", text)
