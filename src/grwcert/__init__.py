"""grwcert: curvature engine and residual certifier for warped-product
(generalized Robertson-Walker) space-times given as symbolic metric charts."""

from .certify import GROUPS, RunConfig, certify_chart, run_certify
from .chart import (ChartInput, ChartPoint, Exclusion, MetricChart,
                    compile_chart, sample_points)
from .classify import (FluidDecomposition, QuadratureError, VelocityAnalysis,
                       fluid_decompose, fluid_form_residual, geodesic_at,
                       ladder_residuals_at, torse_at, weyl_electric_at)
from .curvature import CurvaturePoint, JetStack
from .expr import (EvalDomainError, Expr, ParseError, UnknownSymbolError,
                   eval_jet3, eval_jet3_batch, parse)
from .grw import (FiberMetric, GRWStructure, build_grw, catalog_get,
                  catalog_names, converse_at)
from .jets import TensorJet
from .physics import (EosReport, HomotheticReport, eos_check, eos_parallel_at,
                      homothetic, homothetic_check, motion_at)
from .report import CertificationReport, CheckRecord
from .schema import SpecFileError, load_chart_input

__version__ = "0.1.0"
