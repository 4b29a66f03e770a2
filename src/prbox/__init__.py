"""Post-selected PR-box correlations of a two-mode Gaussian photon-pair
state: analytic post-selected tables, Monte Carlo oracle, FRFT optics
planning, and settings optimization.

Each module is the namespace of its names; import a name from the module
that defines it, as in ``from prbox.chsh import bell_S``.
"""

# perfbench's import_seconds() times `import prbox` and reads the
# scipy.integrate load from it, so importing the package loads every module.
from . import chsh, frft, montecarlo, optimize, state  # noqa: F401

__version__ = "0.1.0"
