"""Names shared across layers, defined without importing numpy.

The experiment catalogue (:mod:`repro.runner.catalog`) declares its default
seed and parameter choices from here, so listing the experiments, resolving
parameters or computing a cache key never imports the simulation stack.
The modules implementing the models re-export these same objects.
"""

#: The project's canonical master seed (the paper's publication year).
#: ``repro.runner.engine.DEFAULT_SEED`` aliases this constant, and
#: ``repro.contention.tables.build_contention_table`` defaults to it.
PAPER_SEED = 2005

#: Registered traffic-model kinds, in the order ``build_traffic_model``
#: accepts them (the ``traffic_model`` experiment parameter's choices).
TRAFFIC_MODEL_KINDS = ("saturated", "periodic", "poisson", "bursty", "mixed")

#: Registered topology-model kinds, in the order ``build_topology_model``
#: accepts them (the ``topology`` experiment parameter's choices).
TOPOLOGY_KINDS = ("star", "grid", "disc", "cluster")

#: The topology kinds with no geometric layout (``build_topology_model``
#: builds ``None``): every node links straight to its coordinator, so
#: nothing routes over more than one hop (``max_hops`` must stay 1).
SINGLE_HOP_TOPOLOGY_KINDS = ("star",)

#: Registered routing-model kinds, in the order ``build_routing_model``
#: accepts them (the ``routing`` experiment parameter's choices).
ROUTING_KINDS = ("gradient", "min_hop")
