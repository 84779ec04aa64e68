"""sixsphere: octonion arithmetic, orthogonal complex structures on the
six-sphere and their twistor model, a numerical mapping-degree engine, and a
small symbolic Chern-class and homotopy-group toolkit, with machine-checkable
verification suites over exact rational arithmetic."""

from .octonion import Octonion, FLOAT_EQ_TOL, MUL_INDEX, MUL_SIGN
from .cstruct import (ComplexStructureR6, ComplexLine, standard_structure,
                      j_from_octonion, equivalent, recover_x, common_line,
                      quaternion_coordinate_form)
from .frames import G2Frame, g2_from_frame
from .twistor import (TwistorPoint, TangentStructure, SO7Element,
                      twistor_evaluate, so7_act, companion, rp7_section,
                      triality_cube, fiber_count_rp7)
from .degree import (MapFamily, mapping_degree, degree_on_rp7,
                     power_map_preimages)
from .homotopy import GroupExpr, Pi7Table, pi_structures_s6, pi_structures_xg
from .chern import GradedPoly, whitney_complement, tensor_line_chern
from .suites import run_suite, run_all, SuiteReport

__version__ = "0.1.0"
