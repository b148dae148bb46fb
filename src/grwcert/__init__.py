"""grwcert: curvature engine and residual certifier for warped-product
(generalized Robertson-Walker) space-times given as symbolic metric charts."""

from .certify import GROUPS, RunConfig, certify_chart, run_certify
from .chart import (ChartInput, ChartPoint, Exclusion, MetricChart,
                    VectorField, compile_chart, sample_points)
from .classify import (ChenReport, FluidDecomposition, IdentityLadderReport,
                       NotClosedError, QuadratureError, SolitonReport,
                       SpacelikeAnomalyError, TorseFormingData,
                       UnclusteredError, VelocityAnalysis, chen_check,
                       check_closed, check_geodesic, fluid_decompose,
                       identity_ladder, reconstruct_potential,
                       soliton_form_check, torse_decompose,
                       weyl_electric_check)
from .curvature import CurvaturePoint, JetStack, curvature_at, grad_vector_at
from .expr import (EvalDomainError, Expr, ParseError, UnknownSymbolError,
                   eval_batch, eval_grad_batch, eval_jet3, eval_jet3_batch,
                   parse)
from .grw import (ConverseReport, FiberMetric, GRWStructure, WarpSpec,
                  build_grw, catalog_get, catalog_names, converse_check,
                  fiber_einstein_check)
from .jets import TensorJet
from .physics import (AB_from_fluid, EosReport, FluidState, HomotheticReport,
                      eos_check, fluid_from_AB, homothetic_check,
                      motion_residuals)
from .report import CertificationReport, CheckRecord, emit_report
from .schema import SpecFileError, chart_input_to_dict, load_chart_input

__version__ = "0.1.0"
