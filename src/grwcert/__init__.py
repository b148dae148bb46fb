"""grwcert: curvature engine and residual certifier for warped-product
(generalized Robertson-Walker) space-times given as symbolic metric charts."""

from .certify import GROUPS, RunConfig, certify_chart, run_certify
from .chart import (ChartInput, ChartPoint, Exclusion, MetricChart,
                    VectorField, compile_chart, sample_points)
from .classify import (FluidDecomposition, NotClosedError, QuadratureError,
                       SpacelikeAnomalyError, TorseFormingData,
                       UnclusteredError, VelocityAnalysis, chen_at,
                       fluid_decompose, geodesic_at, ladder_residuals_at,
                       soliton_at, torse_decompose, weyl_electric_check)
from .curvature import CurvaturePoint, JetStack, curvature_at, grad_vector_at
from .expr import (EvalDomainError, Expr, ParseError, UnknownSymbolError,
                   eval_batch, eval_jet3, eval_jet3_batch, parse)
from .grw import (FiberMetric, GRWStructure, WarpSpec, build_grw,
                  catalog_get, catalog_names, converse_at)
from .jets import TensorJet
from .physics import (EosReport, HomotheticReport, eos_check,
                      homothetic_check, motion_at)
from .report import CertificationReport, CheckRecord, emit_report
from .schema import SpecFileError, chart_input_to_dict, load_chart_input

__version__ = "0.1.0"
