"""repro — Platform-Independent Robust Query Processing.

A from-scratch reproduction of *"Platform-Independent Robust Query
Processing"* (Karthik, Haritsa, Kenkre, Pandit, Krishnan — IEEE TKDE
31(1), 2019; the system behind the ICDE'19 tutorial *"Robust Query
Processing: Mission Possible"*): the PlanBouquet, SpillBound and
AlignedBound selectivity-discovery algorithms with provable Maximum
Sub-Optimality (MSO) guarantees, together with the full database
substrate they need — a cost-based optimizer with selectivity injection,
the Error-prone Selectivity Space machinery (POSP, optimal cost surface,
iso-cost contours, anorexic reduction), and a budgeted iterator engine
with spill-mode execution and selectivity monitoring.

Quickstart::

    from repro import build_query, ESS, ContourSet, SpillBound

    query = build_query("4D_Q91")          # TPC-DS Q91, 4 epps
    ess = ESS.build(query)                 # sweep the optimizer grid
    sb = SpillBound(ess, ContourSet(ess))
    print(sb.mso_guarantee())              # D^2 + 3D = 28
    result = sb.run((0.01, 1e-4, 1e-3, 0.05))
    print(result.suboptimality)
"""

from repro.catalog.datagen import DataGenerator, TableData, scale_cardinalities
from repro.catalog.job import job_schema, q1a
from repro.catalog.schema import (
    Column,
    ForeignKey,
    Schema,
    Table,
    fk_column,
    key_column,
)
from repro.catalog.statistics import EquiDepthHistogram, StatisticsCatalog
from repro.catalog.tpcds import (
    build_query,
    extended_suite_names,
    suite_names,
    tpcds_schema,
)
from repro.conformance.monitors import (
    ConformanceMonitor,
    Violation,
    active_monitor,
    install_monitor,
    monitoring,
)
from repro.core.advisor import (
    Advice,
    EppRecommendation,
    RobustnessAdvisor,
    recommend_epps,
)
from repro.core.aligned_bound import (
    AlignedBound,
    AlignmentStats,
    contour_alignment_stats,
)
from repro.core.discovery import DiscoveryResult, ExecutionRecord
from repro.core.lower_bound import AdversarialGame, lower_bound_demonstration
from repro.core.validate import (
    ValidationError,
    validate_contours,
    validate_discovery_result,
    validate_ess,
)
from repro.core.mso import Evaluation, evaluate_algorithm
from repro.core.native import NativeOptimizer
from repro.core.plan_bouquet import PlanBouquet
from repro.core.randomized import RandomizedSpillBound
from repro.core.session import RobustSession, SessionDecision
from repro.core.spill_bound import SpillBound
from repro.engine.driver import (
    EngineDiscoveryDriver,
    measured_location,
    native_run,
    oracle_run,
)
from repro.engine.spill import ENGINES, execute_plan
from repro.errors import (
    BudgetExhausted,
    DiscoveryError,
    ExecutionError,
    OptimizerError,
    QueryError,
    ReproError,
    SchemaError,
)
from repro.core import bounds
from repro.ess.contours import Contour, ContourSet
from repro.ess.dependence import (
    CorrelatedSpillBound,
    CorrelationSpec,
    correlated_plan_cost,
    joint_correction,
)
from repro.ess.grid import ESSGrid
from repro.ess.ocs import ESS
from repro.ess.diagrams import plan_diagram_stats, reduction_curve, switching_profile
from repro.ess.persistence import load_ess, save_ess
from repro.ess.reduction import AnorexicReduction
from repro.optimizer.calibration import CalibrationReport, calibrate, measure_delta
from repro.optimizer.cost_model import DEFAULT_COST_MODEL, CostModel
from repro.optimizer.optimizer import Optimizer
from repro.query.predicates import FilterPredicate, JoinPredicate, filter_pred, join
from repro.query.parser import SQLParser, parse_sql
from repro.query.query import SPJQuery

__version__ = "1.0.0"

__all__ = [
    # catalog
    "Schema", "Table", "Column", "ForeignKey", "key_column", "fk_column",
    "EquiDepthHistogram", "StatisticsCatalog",
    "DataGenerator", "TableData", "scale_cardinalities",
    "tpcds_schema", "build_query", "suite_names", "extended_suite_names",
    "job_schema", "q1a",
    # query model
    "SPJQuery", "JoinPredicate", "FilterPredicate", "join", "filter_pred",
    "parse_sql", "SQLParser",
    # optimizer
    "Optimizer", "CostModel", "DEFAULT_COST_MODEL",
    "calibrate", "measure_delta", "CalibrationReport",
    # ESS machinery
    "ESSGrid", "ESS", "ContourSet", "Contour", "AnorexicReduction",
    "save_ess", "load_ess", "bounds",
    "plan_diagram_stats", "switching_profile", "reduction_curve",
    "validate_ess", "validate_contours", "validate_discovery_result",
    "ValidationError",
    # conformance monitors
    "ConformanceMonitor", "Violation", "monitoring", "install_monitor",
    "active_monitor",
    "CorrelationSpec", "CorrelatedSpillBound", "joint_correction",
    "correlated_plan_cost",
    # algorithms
    "PlanBouquet", "SpillBound", "AlignedBound", "NativeOptimizer",
    "RandomizedSpillBound", "RobustSession", "SessionDecision",
    "contour_alignment_stats", "AlignmentStats",
    "AdversarialGame", "lower_bound_demonstration",
    "recommend_epps", "EppRecommendation", "RobustnessAdvisor", "Advice",
    # results and metrics
    "DiscoveryResult", "ExecutionRecord", "Evaluation", "evaluate_algorithm",
    # engine
    "execute_plan", "ENGINES",
    "EngineDiscoveryDriver", "oracle_run", "native_run",
    "measured_location",
    # errors
    "ReproError", "SchemaError", "QueryError", "OptimizerError",
    "ExecutionError", "BudgetExhausted", "DiscoveryError",
]
