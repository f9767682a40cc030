"""The mutant matrix: small faults put into ``src/kgt`` one at a time, each with the tests that must kill it.

A row of :data:`MUTANTS` names a fault, its file under ``src/kgt``, the exact
text it replaces (found once there), the new text, and the test ids, as pytest
takes them, of which at least one must fail (DeMillo, Lipton & Sayward, *Hints
on Test Data Selection*, 1978; Jia & Harman, *An Analysis and Survey of the
Development of Mutation Testing*, IEEE TSE 2011). A twin, a row of the
equivalence table or a ``Test oracle:`` helper of ``tests/helpers.py``, may go
only where every mutant it kills is killed by another test.

``python tests/mutants.py`` copies ``src/``, ``tests/`` and ``pyproject.toml``
into a temporary directory, runs every listed id on the clean copy, then each
mutant alone against its row's ids. It prints ``killed`` or ``survived`` per
mutant, then one JSON line of the counts and the BLAS thread count, and exits
0 only when the clean copy passes and every mutant is killed. pytest does not
collect this file; ``tests/test_equivalence.py`` checks that the rows fit the code
and that every test using a ``Test oracle:`` helper is the killer of some row.

Left out as an equivalent mutant: dropout's keep mask times ``1 / (1 - p)``
in place of divided by ``1 - p`` changes no value at p 0.1 and 0.5.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/kgt/
    old: str  # occurs exactly once in the file
    new: str
    killers: tuple[str, ...]  # test ids; at least one must fail


MODEL, TENSOR, OPTIM = "model.py", "tensor.py", "optim.py"
TRAIN, CLI, CONFIG, GRADCHECK_PY, CHECKPOINT = "train.py", "cli.py", "config.py", "gradcheck.py", "checkpoint.py"
GRAPH, SAMPLING, QUERIES, EVALUATION = "graph.py", "sampling.py", "queries.py", "evaluation.py"
T, M, O, E, G, S, Q, V = (
    f"tests/test_{name}.py::"
    for name in ("tensor", "model", "optim", "equivalence", "graph", "sampling", "queries", "evaluation")
)
TR, C = "tests/test_train.py::", "tests/test_config_cli.py::"
TRACE = "tests/test_golden.py::test_training_trace"  # bit-exact losses and digests of short training runs
DIGESTS = "tests/test_golden.py::test_sampler_and_generator_outputs_match_golden_digests"
DETERMINISM = "tests/test_acceptance.py::test_10_run_determinism"
GRADCHECK = "tests/test_acceptance.py::test_01_gradient_suite"
FORMER, FUSED = T + "TestFormerOps::test_", M + "TestFusedAttention::test_block_matches_former_ops"
STACKED = M + "TestStackedExperts::test_block_matches_former_loop"
GATHER = T + "TestGatherRows::test_backward_matches_add_at"
TYPES = M + "TestForward::test_node_types_and_real_rows"
PADDING = M + "TestSparseDispatch::test_padding_slots_run_no_expert"
FIELD = M + "TestField::test_matches_experts_on_every_real_row"
PLAN = M + "TestPlan::test_fields_and_plans_match_the_grid_mask"
NO_QUERY = M + "TestPlan::test_grid_row_with_keys_but_no_query"
DROPOUT_ROWS = M + "TestField::test_each_dropout_draws_its_fields_rows_in_row_order"
MOE = M + "TestMoe::test_matches_oracle_in_both_modes"
DRAW = M + "TestParameters::test_truncated_normal_matches_heap_oracle_bit_for_bit"
LOOP = O + "TestArenaAgainstLoop::test_bit_exact_over_five_steps"
CROSS_ENTROPY = T + "TestCrossEntropyOracle::test_matches_dense_labels"
EVAL_ADD = T + "TestDropout::test_eval_mode_is_add"
KEY_WIDTH = G + "TestKnowledgeGraph::test_csr_matches_int64_group_at_every_key_width"
NESTING = G + "TestLoadSplit::test_split_nesting_error_names_its_line"
LAST_ENTITY = S + "TestCorruption::test_replacements_reach_the_last_entity"
GROUNDING = Q + "TestGrounding::test_matches_quantifier_oracle"
UNION = Q + "TestGeneration::test_union_second_branch_starts_anywhere"
CHUNKED = V + "TestChunkedEvaluation::"
RANK_DUMP = V + "TestEvaluate::test_rank_dump_records"
RELABELING = "tests/test_relations.py::test_entity_relabeling_permutes_logit_columns_bit_for_bit"
CK = M + "TestCheckpoint::test_"
WRITE_FAILS = G + "TestWriteAtomic::test_failed_write_keeps_the_former_file_and_no_temp"

MUTANTS = (
    # ---- kernels and tape ops
    Mutant("gelu coefficient 0.0447", TENSOR, "th *= 0.044715", "th *= 0.0447",
           (T + "TestGelu::test_float32_matches_float64_formula", TRACE)),
    Mutant("gelu scale distributed over x", TENSOR, "    y = x * 0.5\n    y *= th + 1.0\n",
           "    y = x * 0.5 * th\n    y += x * 0.5\n", (STACKED, TRACE)),
    Mutant("layer-norm variance times 1/n", TENSOR,
           'np.true_divide(var, np.intp(x.shape[-1]), out=var, casting="unsafe")', "var *= 1.0 / x.shape[-1]",
           (FORMER + "layer_norm",)),
    Mutant("attention scale on q before q k^T", TENSOR,
           "masked_softmax(q @ np.swapaxes(k, -1, -2) * scale, plan.bias[:, None])",
           "masked_softmax((q * scale) @ np.swapaxes(k, -1, -2), plan.bias[:, None])",
           (FORMER + "attention_softmax_folds_the_scale", FUSED, TRACE)),
    Mutant("softmax by the reciprocal of the sum", TENSOR, "x /= x.sum(axis=-1, keepdims=True)",
           "x *= 1.0 / x.sum(axis=-1, keepdims=True)",
           (E + "test_masked_softmax_matches_boolean_mask", FORMER + "gate_softmaxes", TRACE)),
    Mutant("dropout backward scales the residual's gradient too", TENSOR, "        _accumulate(x, g)\n",
           "        _accumulate(x, g * keep, owned=True)\n", (FORMER + "residual_dropout", FUSED, GRADCHECK)),
    Mutant("add drops its second gradient", TENSOR, "        _accumulate(a, g)\n        _accumulate(b, g)\n",
           "        _accumulate(a, g)\n", (FORMER + "add", EVAL_ADD, GRADCHECK)),
    Mutant("dropout off returns the residual alone", TENSOR, "        return add(x, a)", "        return x",
           (EVAL_ADD, T + "TestDropout::test_zero_rate_is_add", MOE)),
    Mutant("attention key gradient block takes the query gradient", TENSOR,
           "g_kv[:, :, 0] = np.swapaxes(g_kt, -1, -2).transpose(0, 2, 1, 3)",
           "g_kv[:, :, 0] = (g_scores @ k).transpose(0, 2, 1, 3)",
           (FORMER + "attention_softmax_folds_the_scale", T + "TestAttentionWeightGradient::test_matches_stacked_product",
            GRADCHECK)),
    Mutant("dropout draws a second block past its rows", TENSOR, "keep = (rng.random(a.data.shape) >= p)",
           "keep = (rng.random((2, *a.data.shape))[1] >= p)", (DROPOUT_ROWS, FORMER + "residual_dropout")),
    Mutant("attention query gradient gathered from the key slots", TENSOR,
           "g_q = (g_scores @ k).transpose(0, 2, 1, 3).reshape(g * nq, d)[query_slot]",
           "g_q = (g_scores @ k).transpose(0, 2, 1, 3).reshape(g * nq, d)[key_slot[queries]]", (FIELD, GRADCHECK)),
    Mutant("a lone query takes one slot", TENSOR, "nq = max(min(2, nk), int(query_col.max()) + 1)",
           "nq = int(query_col.max()) + 1", (V + "TestChunkedEvaluation::test_one_position_row_matches_two_position_batch",
                                            NO_QUERY)),
    Mutant("an empty query slot takes the bias of the first used grid row's first key", TENSOR,
           "source = np.repeat(np.flatnonzero(first), nq)", "source = np.zeros(nq * int(first.sum()), dtype=np.int64)",
           (NO_QUERY, PLAN)),
    Mutant("an edge written in one direction only", TENSOR, "index[np.concatenate([pairs, pairs[:, ::-1]])]",
           "index[pairs]", (PLAN, TRACE)),
    Mutant("a plan that leaves an empty key slot at bias 0", TENSOR,
           "    key_bias[np.arange(len(rows)), key_col] = 0.0\n",
           "    key_bias[np.arange(len(rows)), key_col] = 0.0\n"
           "    key_bias[:-1, :nk][np.arange(nk) > np.maximum.reduceat(key_col, np.flatnonzero(first))[key_row][:, None]] = 0.0\n",
           (NO_QUERY, PLAN, FIELD)),
    Mutant("_gemm sends one row to gemv", TENSOR, "if x.shape[0] == 1:", "if x.shape[0] == -1:",
           (E + "test_gemm_keeps_one_row_on_gemm", T + "TestOneRowMatmul::test_matches_row_zero_of_two_row_product",
            TRACE)),
    Mutant("cross-entropy smoothing mass alpha/(C+1)", TENSOR, "gz -= alpha / classes", "gz -= alpha / (classes + 1)",
           (CROSS_ENTROPY, GRADCHECK)),
    Mutant("cross-entropy gradient re-exponentiated from z - zmax", TENSOR, "gz = np.exp(logp)",
           "gz = np.exp(z - zmax) / np.exp(z - zmax).sum(axis=-1, keepdims=True)",
           (T + "TestCrossEntropyOracle::test_unsmoothed_matches_dense_labels_bit_for_bit", TRACE)),
    Mutant("answer-masked gradient without its 1/k", TENSOR, "scale = g / k", "scale = g",
           (T + "TestAnswerMaskedCrossEntropy::test_matches_per_row_loop", GRADCHECK)),
    Mutant("gather without repeats writes instead of adding", TENSOR, "a.grad[idx] += g", "a.grad[idx] = g",
           (STACKED, M + "TestSparseDispatch::test_gradients_match_former_expert_loop_bit_for_bit")),
    Mutant("gather backward never sees a repeat", TENSOR, "if (ordered[1:] != ordered[:-1]).all():", "if True:",
           (GATHER, GRADCHECK)),
    Mutant("repeat check compares unsorted neighbours", TENSOR, "ordered = np.sort(idx)", "ordered = idx",
           (GATHER, GRADCHECK)),
    Mutant("experts backward in forward order", TENSOR, "for j in reversed(range(len(saved))):",
           "for j in range(len(saved)):", (STACKED,)),
    Mutant("attention input-gradient terms in another order", TENSOR,
           "        gh += _gemm(g_kv[:, :d], wk.T)\n        gh = gh[key_slot]\n        gh[queries] += _gemm(g_q, wq.T)\n",
           "        gh = gh[key_slot]\n        gh[queries] += _gemm(g_q, wq.T)\n        gh += _gemm(g_kv[:, :d], wk.T)[key_slot]\n",
           (FORMER + "attention_softmax_folds_the_scale", FUSED, TRACE)),
    Mutant("decode table gradient in float64", TENSOR,
           "_accumulate(table, np.matmul(g.T, states.data, out=_grad_out(table)), owned=True)",
           "_accumulate(table, (g.T.astype(np.float64) @ states.data).astype(g.dtype), owned=True)",
           (M + "TestDecoderOp::test_block_matches_former_ops", TRACE)),
    # ---- the model
    Mutant("attention residual taken from the normalized input", MODEL,
           "return T.dropout(T.gather_rows(x, plan.queries), out, cfg.dropout, rng, training)",
           "return T.dropout(T.gather_rows(h, plan.queries), out, cfg.dropout, rng, training)",
           (FUSED,)),
    Mutant("MoE residual taken from the normalized input", MODEL,
           "return T.dropout(x, combined, cfg.dropout, rng, training)",
           "return T.dropout(h, combined, cfg.dropout, rng, training)", (STACKED, MOE)),
    Mutant("mask token typed as a relation node", MODEL, "(ids <= cfg.mask_id)", "(ids < cfg.mask_id)", (TYPES, TRACE)),
    Mutant("the input field one hop short", MODEL, "    fields = field_rows(batch, cfg.layers + 1)\n",
           "    fields = field_rows(batch, cfg.layers + 1)\n    fields[0] = fields[1]\n", (TYPES, FIELD)),
    Mutant("keys taken at the layer's own field instead of the field before", MODEL,
           "fields[layer], fields[layer + 1])\n        x = attention_layer(model, layer, x, plan, training, rng)",
           "fields[layer + 1], fields[layer + 1])\n        x = attention_layer(model, layer, "
           "T.gather_rows(x, np.searchsorted(fields[layer], fields[layer + 1])), plan, training, rng)", (TYPES, FIELD)),
    Mutant("prediction rows gathered in grid order", MODEL, "np.searchsorted(fields[-1], batch.positions)",
           "np.searchsorted(fields[-1], np.sort(batch.positions))",
           (M + "TestPacking::test_stage1_batches_match_padded", TRACE)),
    # every layer on every real row, as the twin runs: only the spies see the rows
    Mutant("the field starts from all real rows", MODEL, "reach[batch.positions] = True",
           "reach[...] = (np.arange(batch.entity_ids.shape[1]) < np.asarray(batch.sizes)[:, None]).reshape(-1)",
           (TYPES, PADDING, FIELD)),
    Mutant("a frontier step that follows edges one way only", MODEL, "reach[batch.edges[step]] = True",
           "reach[batch.edges[:, 1][step[:, 1]]] = True",
           (PLAN, TYPES)),
    Mutant("equal-size graphs packed in reverse order", MODEL, "key=lambda i: -counts[i])",
           "key=lambda i: (-counts[i], -i))", (PADDING, TRACE)),
    Mutant("a relation node linked one slot past its graph in _pack", MODEL,
           "link_nodes.append(np.arange(k, start + n))", "link_nodes.append(np.arange(k + 1, start + n + 1))",
           (M + "TestEncoding::test_padding_slots_are_inert_mask_tokens", M + "TestPacking::test_stage1_batches_match_padded")),
    Mutant("top-k takes the bottom experts", MODEL, "np.argsort(-gate_logits.data,", "np.argsort(gate_logits.data,",
           (MOE, "tests/test_acceptance.py::test_03_moe_routing", TRACE)),
    Mutant("exact ties route to the higher index", MODEL,
           'order = np.argsort(-gate_logits.data, axis=-1, kind="stable")',
           'order = cfg.experts - 1 - np.argsort(-gate_logits.data[:, ::-1], axis=-1, kind="stable")',
           (M + "TestMoe::test_exact_ties_route_to_lower_index", STACKED)),
    Mutant("truncation at 2.5 std", MODEL, "np.abs(z) > 2.0 * std", "np.abs(z) > 2.5 * std",
           (DRAW, M + "TestParameters::test_truncated_normal_respects_bound", TRACE)),
    Mutant("draws scaled by a float32 std", MODEL, "z *= std", "z *= np.float32(std)", (DRAW, TRACE)),
    Mutant("entity 0 enters as the mask token", MODEL, "where=ids != FREE_SLOT", "where=ids > 0",
           (RELABELING, M + "TestPacking::test_stage1_batches_match_padded")),
    Mutant("tensors drawn in reverse arena order", MODEL, "for name, _, init in parameter_table(config):",
           "for name, _, init in parameter_table(config)[::-1]:",
           (M + "TestParameters::test_table_draws_each_element_once_in_the_documented_order", TRACE)),
    Mutant("query ids not checked against the model's tables", MODEL,
           "if not all(0 <= a < config.entity_count for a in q.anchors) or", "if False and",
           (M + "TestEncoding::test_query_ids_outside_the_tables_rejected",
            V + "TestEvaluate::test_anchor_outside_the_model_rejected")),
    # ---- the optimizer
    Mutant("AdamW bias correction by a reciprocal", OPTIM, "np.divide(m, bias1, out=u)",
           "np.multiply(m, 1.0 / bias1, out=u)", (LOOP, TRACE)),
    Mutant("clip scale applied by division", OPTIM, "g = np.multiply(g, scale, out=u)",
           "g = np.divide(g, 1.0 / scale, out=u)", (LOOP, TRACE)),
    Mutant("learning rate decays only in the first epoch", OPTIM, "self.lr * self.lr_decay**epoch",
           "self.lr * self.lr_decay ** min(epoch, 1)", (LOOP, O + "TestConfig::test_schedule")),
    Mutant("first step keeps -0.0 moments", OPTIM, "                m += 0.0  # 0 * beta1 + s: a -0.0 becomes +0.0\n",
           "", (LOOP,)),
    Mutant("bias correction one step ahead", OPTIM, "bias1 = 1.0 - cfg.beta1**self.step_count",
           "bias1 = 1.0 - cfg.beta1 ** (self.step_count + 1)", (O + "TestAdamW::test_first_step_moves_by_lr", LOOP)),
    Mutant("clip block sums in float32", OPTIM, "_CLIP_SCRATCH = np.empty(_BLOCK, dtype=np.float64)",
           "_CLIP_SCRATCH = np.empty(_BLOCK, dtype=np.float32)",
           (O + "TestClip::test_blocked_norm_matches_full_float64_sum", TRACE)),
    # ---- the graph store and split loading
    Mutant("radix keys one width too narrow", GRAPH, "np.min_scalar_type(self.entity_count)",
           "np.min_scalar_type(self.entity_count // 2)", (KEY_WIDTH,)),
    Mutant("CSR groups sorted unstably", GRAPH, 'kind="stable"', 'kind="quicksort"', (KEY_WIDTH, DIGESTS)),
    Mutant("successors ignore the relation", GRAPH, "set(tails[lo:hi][rels[lo:hi] == relation].tolist())",
           "set(tails[lo:hi].tolist())", (G + "TestKnowledgeGraph::test_successor_sets", GROUNDING)),
    Mutant("unique pairs drop a leading zero key", GRAPH, "np.diff(keys, prepend=-1) != 0",
           "np.diff(keys, prepend=0) != 0", (G + "TestKnowledgeGraph::test_unique_pairs_match_np_unique", KEY_WIDTH)),
    Mutant("build_split always runs the set tests", GRAPH, "if _bad_id(store, entity_count, relation_count) is not None or",
           "if True or _bad_id(store, entity_count, relation_count) is not None or",
           (G + "TestLoadSplit::test_normalized_dataset_loads_without_set_tests",)),
    Mutant("build_split skips the id check of unrepeated parts", GRAPH,
           "_bad_id(store, entity_count, relation_count) is not None or ", "",
           (G + "TestLoadSplit::test_build_split_keeps_integrity_errors",
            G + "TestLoadSplit::test_ingest_rejects_bad_ids_instead_of_reading_tokens")),
    Mutant("test's new triples taken against train", GRAPH, "test_new = ~np.isin(test, valid)",
           "test_new = ~np.isin(test, train)", (G + "TestLoadSplit::test_cumulative_files_verified", NESTING)),
    Mutant("valid blamed when it adds only new triples", GRAPH, "if valid_whole or valid_new.all():",
           "if valid_whole:", (NESTING,)),
    Mutant("test's repeats of train triples not located", GRAPH, "~test_new | np.isin(test, train)", "~test_new",
           (NESTING,)),
    Mutant("an empty field accepted", GRAPH, 'if "" in fields:', "if False:",
           tuple(C + f"TestCliErrors::test_empty_field_stops_at_its_line[{layout}]" for layout in ("ids", "vocabulary", "tokens"))),
    Mutant("ingest's vocabulary in first-seen order", GRAPH, "entities = sorted({tok for h, _, t in fields for tok in (h, t)})",
           "entities = list(dict.fromkeys(tok for h, _, t in fields for tok in (h, t)))",
           (G + "TestLoadSplit::test_ingest_sorts_the_tokens_of_a_dataset_without_vocabularies",
            C + "TestPipeline::test_dataset_normalized")),
    # ---- the samplers
    Mutant("slice positions without each slice's own offset", SAMPLING, "starts - np.cumsum(lengths) + lengths",
           "starts - np.cumsum(lengths)", (S + "TestInduce::test_keep_all_matches_brute_force", DIGESTS)),
    Mutant("induced triples in walk order", SAMPLING, "members = np.unique(np.asarray(nodes, dtype=np.int64))",
           "members = np.asarray(list(dict.fromkeys(nodes)), dtype=np.int64)",
           (S + "TestInduce::test_keep_all_lists_heads_ascending_in_triple_order", DIGESTS)),
    Mutant("induced heads by a left search", SAMPLING, 'side="right") - 1', 'side="left") - 1',
           (S + "TestInduce::test_keep_all_matches_brute_force", DIGESTS)),
    Mutant("weight tail updated past the pick", SAMPLING, "cumulative[k:] -= weights[k]",
           "cumulative[k + 1 :] -= weights[k]", (S + "TestLayerDependent::test_without_replacement_and_cap", DIGESTS)),
    Mutant("frontier counts members too", SAMPLING, "counts = np.bincount(reached[~member_flag[reached]])",
           "counts = np.bincount(reached)", (S + "TestLayerDependent::test_without_replacement_and_cap", DIGESTS)),
    Mutant("meta-tree walk steps from its last node", SAMPLING,
           "cur = nodes[min(int(uniforms[2 * step] * len(nodes)), len(nodes) - 1)]", "cur = nodes[-1]",
           (S + "TestMetaTree::test_steps_from_any_sampled_node", DIGESTS)),
    Mutant("corruption replaces 5% and keeps 15%", SAMPLING, "elif u >= 0.9:", "elif u >= 0.95:",
           (LAST_ENTITY, S + "TestCorruption::test_distribution_80_10_10")),
    Mutant("corruption replaces from one entity fewer", SAMPLING, "inputs[pos] = rng.integers(entity_count)",
           "inputs[pos] = rng.integers(entity_count - 1)", (LAST_ENTITY, TRACE)),
    Mutant("meta-graph target left visible", SAMPLING, "inputs[qtype.anchor_count :] = FREE_SLOT",
           "inputs[qtype.anchor_count : -1] = FREE_SLOT", (S + "TestMetaGraphs::test_shapes_are_valid", DIGESTS)),
    Mutant("meta-graph shape drawn from one shape fewer", SAMPLING, "shapes[int(rng.integers(len(shapes)))]",
           "shapes[int(rng.integers(len(shapes) - 1))]",
           (S + "TestMetaGraphs::test_branch_draws_are_walk_back_draws", DIGESTS)),
    # ---- query templates and grounding
    Mutant("equal anchors accepted", QUERIES, "if len(set(slots[: tpl.anchor_count])) < tpl.anchor_count:",
           "if False:", (Q + "TestGeneration::test_multi_anchor_queries_use_distinct_anchors",)),
    Mutant("a union's second in-edge from the same entity", QUERIES,
           "node = int(rng.integers(graph.entity_count)) if picked else slots[slot]", "node = slots[slot]",
           (UNION, DIGESTS, DETERMINISM)),
    Mutant("unions drawn as distinct in-neighbors", QUERIES, "if len(in_edges) > 1 and not tpl.union:",
           "if len(in_edges) > 1:", (UNION, DIGESTS, DETERMINISM)),
    Mutant("distinct in-edges keep repeated heads", QUERIES, "if h in seen:", "if False:",
           (Q + "TestGeneration::test_intersections_skip_repeated_heads", DIGESTS)),
    Mutant("in-edges taken in triple order", QUERIES, "order = rng.permutation(len(heads))",
           "order = np.arange(len(heads))", (DIGESTS, Q + "TestGeneration::test_eval_queries_have_hard_answers")),
    Mutant("unions grounded as intersections", QUERIES, "join = set.union if tpl.union else set.intersection",
           "join = set.intersection", (GROUNDING,)),
    Mutant("query record sorts its relations", QUERIES, '"relations": list(self.relations)', '"relations": sorted(self.relations)',
           (V + "TestQueryRecord::test_heads_query_file_rank_dump_and_interpret_lines", Q + "TestQueryIO::test_round_trip",
            RANK_DUMP)),
    # ---- training, configuration, the CLI and the gradient check
    Mutant("selection keeps the worst candidate", TRAIN, "max(row, key=row.get)", "min(row, key=row.get)",
           (TR + "TestCombinatorial::test_selection_prefers_higher_score_and_first_on_ties",)),
    Mutant("pretrain runs one step fewer per epoch", TRAIN, "for _ in range(steps):", "for _ in range(steps - 1 or 1):",
           (TR + "TestPretrain::test_default_step_count_covers_graph",)),
    Mutant("default steps per epoch rounded down", TRAIN, "math.ceil(len(graph) / config.batch_size)",
           "len(graph) // config.batch_size", (TR + "TestPretrain::test_default_step_count_covers_graph",)),
    Mutant("lr schedule one epoch late", TRAIN, "optimizer.step(epoch,", "optimizer.step(epoch + 1,",
           (TR + "TestPretrain::test_lr_follows_schedule", TRACE)),
    Mutant("a fine-tune round skips a shape", TRAIN, "for chunk in chunks:", "for chunk in chunks[1:]:",
           (TR + "TestFinetune::test_round_robin_step_count",)),
    Mutant("checkpoint vocabulary check skipped", CLI, "if have != want:", "if False:",
           (C + "TestCliErrors::test_checkpoint_of_another_vocabulary[pretrain]",
            C + "TestCliErrors::test_checkpoint_of_another_vocabulary[finetune]")),
    Mutant("max_answers bound off by one", CONFIG, "queries_max_answers < 1", "queries_max_answers < 0",
           (C + "TestConfigParsing::test_validation_errors",)),
    Mutant("gradcheck compares the tape with itself", GRADCHECK_PY,
           "gradient_error(analytic[key], numeric_gradient(value, t.data))", "gradient_error(analytic[key], analytic[key])",
           (T + "TestGradcheckCoverage::test_check_function_fails_a_backward_that_doubles_its_gradient",)),
    # ---- artifact writers
    Mutant("writes the destination in place", GRAPH, 'tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")',
           "tmp = path", (WRITE_FAILS, CK + "run_killed_mid_save_leaves_the_former_file")),
    Mutant("temp file kept after a failed write", GRAPH, "        tmp.unlink(missing_ok=True)\n", "", (WRITE_FAILS,)),
    Mutant("directory not synced after the rename", GRAPH, "os.fsync(directory)", "os.fstat(directory)",
           (G + "TestWriteAtomic::test_directory_synced_after_the_rename",)),
    Mutant("the dataset directory left out of the pretrain manifest", CLI,
           'inputs = [_dataset_dir(args)]\n    split = load_split(inputs[0])\n    ckpt_dir = Path(args.out) / "checkpoints"\n    stage_name',
           'inputs = []\n    split = load_split(_dataset_dir(args))\n    ckpt_dir = Path(args.out) / "checkpoints"\n    stage_name',
           (C + "TestPipeline::test_training_manifests_record_what_they_read",)),
    Mutant("earlier selection kept", CLI, "stale.unlink(missing_ok=True)", "stale.exists()",
           (C + "TestPipeline::test_finetune_rerun_drops_the_earlier_selection",)),
    # ---- checkpoints
    Mutant("trailing bytes accepted", CHECKPOINT, "if declared < left:", "if False:", (CK + "trailing_bytes_rejected",)),
    Mutant("non-finite parameters load", CHECKPOINT, "if not np.isfinite(data).all():", "if False:",
           (CK + "non_finite_parameter_rejected_by_name",)),
    Mutant("any version accepted", CHECKPOINT, "if version != VERSION:", "if False:",
           (CK + "bad_version_rejected", CK + "v1_file_rejected")),
    Mutant("header parameter list not compared", CHECKPOINT, "if stored != list(expected.items()):", "if False:",
           tuple(CK + name for name in ("missing_parameter_rejected", "extra_parameter_rejected", "wrong_shape_rejected",
                                        "misordered_or_repeated_parameters_rejected", "per_qkv_layout_rejected",
                                        "per_expert_layout_rejected"))),
    Mutant("arena size checked only after mapping", CHECKPOINT, "if declared > left:", "if False:",
           (CK + "huge_declared_arena_rejected_before_mapping",)),
    Mutant("header read past the end of the file", CHECKPOINT, "fh.read(min(n, os.fstat(fh.fileno()).st_size))",
           "fh.read(n)", (CK + "truncation_rejected",)),
    # ---- evaluation
    Mutant("branch rows read off by query index", EVALUATION, "list(logits[owner == i]) for i in range(len(queries))",
           "list(logits[i : i + len(b)]) for i, b in enumerate(branches)",
           (CHUNKED + "test_toy_width_scores_within_bound", CHUNKED + "test_chunk_size_does_not_change_outputs")),
    Mutant("each chunk drops its last query", EVALUATION, "chunk = kept[start : start + EVAL_CHUNK]",
           "chunk = kept[start : start + EVAL_CHUNK - 1]",
           (CHUNKED + "test_one_forward_per_chunk_per_shape", CHUNKED + "test_chunk_size_does_not_change_outputs")),
    Mutant("union ranks not negated", EVALUATION, "return -union_combine(branch_scores).astype(np.float64)",
           "return union_combine(branch_scores).astype(np.float64)", (V + "TestEvaluate::test_union_scoring_uses_min_rank",)),
    Mutant("ties counted against the answer", EVALUATION, "scores[allowed] > scores[answer]",
           "scores[allowed] >= scores[answer]",
           (V + "TestFilteredRank::test_ties_are_optimistic", "tests/test_acceptance.py::test_04_filtered_ranking")),
    Mutant("ranks filtered by train answers only", EVALUATION,
           "filter_ids = np.asarray(sorted(inst.filter_set), dtype=np.int64)",
           "filter_ids = np.asarray(sorted(inst.answers_train), dtype=np.int64)", (RANK_DUMP,)),
    Mutant("rank dump pairs answers in reverse", EVALUATION, "for answer, rank in zip(hard, ranks):",
           "for answer, rank in zip(hard[::-1], ranks):", (RANK_DUMP,)),
    Mutant("mean row sums MRR", EVALUATION, 'if metric == "queries"', 'if metric in ("queries", "mrr")',
           (V + "TestEvaluate::test_table_shape_and_mean_row",)),
)


def blas_threads() -> int | None:
    """The thread count of numpy's bundled OpenBLAS, or None where it has none."""
    import numpy

    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")):
        get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            return int(get())
    return None


def pytest(root: Path, ids) -> subprocess.CompletedProcess:
    """The tests ``ids`` run in the copy at ``root``, up to the first failure."""
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0", *ids]
    return subprocess.run(command, cwd=root, capture_output=True, text=True)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, root / part, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", root)
        clean = pytest(root, sorted({i for m in MUTANTS for i in m.killers}))
        if clean.returncode:
            print(f"the clean copy fails a listed test:\n{clean.stdout[-3000:]}", file=sys.stderr)
            return 1
        survived = []
        for mutant in MUTANTS:
            path = root / "src" / "kgt" / mutant.file
            text = path.read_text(encoding="utf-8")
            assert text.count(mutant.old) == 1, mutant.name
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
            killed = pytest(root, mutant.killers).returncode != 0
            path.write_text(text, encoding="utf-8")
            survived += [] if killed else [mutant.name]
            print(f"{'killed' if killed else 'survived':8}  {mutant.name}", flush=True)
    summary = {"mutants": len(MUTANTS), "killed": len(MUTANTS) - len(survived), "survived": survived}
    print(json.dumps({**summary, "blas_threads": blas_threads()}))
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
