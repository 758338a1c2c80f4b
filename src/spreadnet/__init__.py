"""spreadnet: country-risk spread forecasting from a leading indicator's
rolling VaR, a global spread, and the risk-free rate, via small
multi-restart neural ensembles scored by a modified Sharpe discriminant.

The package is its modules, in pipeline order: ``series`` (loading and
alignment), ``preprocess`` (VaR and smoothing into base-set matrices),
``neural`` (training with restarts), ``scoring`` and ``metrics`` (the
modified Sharpe index and excess predictability), ``ensemble`` (top-10
selection and the master), ``pipeline`` and ``cli`` (runs and forecasts),
with ``errors``, ``demo`` and ``reference`` beside them. Every name is
imported from its module, e.g. ``from spreadnet.neural import train``.
"""
