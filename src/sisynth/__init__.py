"""Safety index synthesis for control-affine systems with state-dependent
box control limits: Positivstellensatz-style refute-set certificates, a
multi-start Douglas-Rachford feasibility solver with a grid search over the
index gain, a QP safety filter, and a navigation simulation harness.

Import the submodules (``sisynth.config``, ``sisynth.cli``, ...): the package
re-exports nothing, so each command loads only the stages it runs.
"""

__version__ = "0.1.0"
