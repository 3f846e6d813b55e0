"""Frozen reference implementations the tier-1 suites compare the shipped code against.

Nothing under ``src/repro/`` imports this package (``tests/test_package_surface.py``
guards that); an oracle may import shipped *containers and endpoints*, never the
shipped code it mirrors.  Each one is the code ``src/repro/`` shipped at the
commit named in the last column, moved here verbatim in behaviour when the
shipped path was replaced.  Do not modernise them: change an oracle only
together with a deliberate, documented change of the behaviour it pins.

========================  ==============================================  ==================================  =========
oracle                    shipped code it mirrors                         suite that holds them equal         frozen at
========================  ==============================================  ==================================  =========
``costmodel_scalar``      ``core.costmodel`` (array-valued Eqs. 1-8)      ``test_costmodel.py``               c960c92
``flat_rowwise``          ``index.flat`` column-kernel batch descents     ``test_forest_queries.py``          9fe6525
``scatter_per_shard``     ``ShardedRemoteServer`` fused forest scatter    ``test_fused_scatter.py``           9fe6525
``pointer_rtree``         ``FlatRTree.from_mbr_array`` (the index build;  ``test_flat_build.py``,             408927d
                          ``flatten`` = the old ``FlatRTree(tree)``)      ``test_index_rtree.py``,
                                                                          ``test_batch_queries.py``
``operators_scalar``      ``device.hbsj`` / ``device.nlsj`` batch forms   ``test_device.py`` (and every       408927d
                          and their one-request cases, ``MobileDevice.    suite that runs the depth-first
                          hbsj`` / ``.nlsj``                              driver)
``frontier_generators``   the level tables of ``core.frontier`` /         ``test_level_table.py``,            364127c
                          ``upjoin`` / ``mobijoin`` / ``srjoin`` (one     ``test_uniformity_stats.py`` (and
                          ``_window_steps`` generator per window, the     every suite that runs the
                          old ``core/stats.py``, ``WindowCosts``, the     depth-first driver)
                          one-window Eq. 9 / Eq. 11, ``level_rounds``)
``recursive_driver``      ``FrontierAlgorithm``'s level-order engine      ``test_frontier_equivalence.py``,   408927d
                          (drives ``frontier_generators`` one window at   ``test_golden_traces.py``,
                          a time; leaves run ``operators_scalar``)        ``test_metering_invariants.py``,
                                                                          ``test_service_equivalence.py``
``plane_sweep_scalar``    ``index.plane_sweep`` segmented kernel,         ``test_leaf_pipeline.py``,          408927d
                          ``index.hash_join`` over it                     ``test_batch_queries.py``
``wifi_event``            ``WifiLinkModel.replay_time`` (closed form      ``test_simulation_wifi.py``         408927d
                          behind ``estimate_channel_time`` /
                          ``simulate_channels``)
``semijoin_scalar``       ``SemiJoin`` flat relay +                       ``test_batch_queries.py``           408927d
                          ``IndexedRemoteServer.upload_windows_and_
                          collect``
``pairs_lexsort``         ``index.pairs.unique_pairs`` / ``unique_rows``  ``test_leaf_pipeline.py``           c645f5d
                          (the one-key dedupe) and ``grid_hash_join_
                          batch``'s dedupe of its triples
========================  ==============================================  ==================================  =========
"""
