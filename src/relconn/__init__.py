"""Connectivity of Boolean constraint solution graphs.

The package classifies finite sets of Boolean relations by how hard the
connectivity questions about their CNF formulas' solution graphs are,
decides those questions outright for concrete formulas, and builds the
two gadget constructions behind the hardness results.
"""

from __future__ import annotations

from .catalog import CATALOG, parse_relations
from .classify import (Predictions, RelationProfile, SetClassification,
                       classify_set, predict, profile)
from .constructions import (ExpressOutcome, ReductionOutput, build_F, build_T,
                            express_m, express_m_details, reduce_sat_to_conn)
from .cpss import (ConnDecision, CpssReport, conn_cpss, decide_connectivity,
                   project, sat_schaefer)
from .errors import (ArityLimitError, ClauseExtractionError,
                     DiameterLimitError, ExpressionError, FormulaError,
                     FormulaParseError, HornStructureError, NonCpssError,
                     NotASolutionError, PatternError, ReductionInputError,
                     RelationError, RelconnError, TriviallySatisfiableError,
                     VarsLimitError)
from .formulas import (ClauseSet, CnfClause, Constraint, Formula, XorEquation,
                       evaluate, format_formula, make_formula, parse_formula,
                       to_clausal)
from .horn import (format_horn, imp, is_implied, is_maximal_self_implicating,
                   is_self_implicating, maximal_self_implicating_sets,
                   normalize, parse_horn)
from .relations import (ArgPattern, Relation, apply_pattern, check_property,
                        componentwise, components, first_unsafe_identification,
                        hull, is_closed)
from .solution_graph import (SolutionGraphReport, diameter, distance,
                             export_dot, is_connected, locally_minimal, report,
                             solution_space, solutions, st_connected)

__version__ = "0.1.0"
