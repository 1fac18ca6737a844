"""Flows of Lipschitz horizontal vector fields on homogeneous groups.

Library layout: exact group arithmetic (`groups`), homogeneous gauges and
distances (`gauges`), left-invariant frames and horizontal fields
(`fields`), Cauchy-problem integration (`flow`), uniqueness monitors
(`uniqueness`) and the non-uniqueness exhibit (`counterexample`).  The
`horoflow` CLI drives the same operations from JSON configs.
"""

__version__ = "0.1.0"
