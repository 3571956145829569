// Algorithm 1 (local anchor tables) and §3.3 (unified tables).
#include <gtest/gtest.h>

#include "stagger/instrument.hpp"
#include "workloads/dslib/hashtable.hpp"

namespace st::stagger {
namespace {

using ir::FunctionBuilder;
using ir::Reg;

/// queuePtr-style example from §3.2: two accesses to the same object; the
/// second must be a non-anchor whose pioneer is the first.
TEST(AnchorPass, SecondAccessToSameNodeIsNonAnchorWithPioneer) {
  ir::Module m;
  const ir::StructType* q = m.add_type(ir::make_struct(
      "queue", {{"head", 0, 8, nullptr}, {"tail", 0, 8, nullptr}}));
  FunctionBuilder b(m, "ab", {q, nullptr});
  const Reg h = b.load_field(b.param(0), q, "head");  // anchor
  b.store_field(b.param(0), q, "tail", b.param(1));   // non-anchor
  b.ret(h);
  m.add_atomic_block(b.function());

  dsa::ModuleDsa dsa(m);
  AnchorPass pass(m, dsa);
  pass.build_local_tables();
  const LocalAnchorTable& lt = pass.local_table(b.function());
  ASSERT_EQ(lt.entries.size(), 2u);
  EXPECT_TRUE(lt.entries[0].is_anchor);
  EXPECT_FALSE(lt.entries[1].is_anchor);
  EXPECT_EQ(lt.entries[1].pioneer, &lt.entries[0]);
}

/// Accesses on different branches of an if: neither dominates the other, so
/// both are anchors even though they touch the same node.
TEST(AnchorPass, BranchArmsAreIndependentAnchors) {
  ir::Module m;
  const ir::StructType* q =
      m.add_type(ir::make_struct("obj", {{"v", 0, 8, nullptr}}));
  FunctionBuilder b(m, "ab", {q, nullptr});
  b.if_else(b.param(1),
            [&] { b.store_field(b.param(0), q, "v", b.const_i(1)); },
            [&] { b.store_field(b.param(0), q, "v", b.const_i(2)); });
  b.ret();
  m.add_atomic_block(b.function());

  dsa::ModuleDsa dsa(m);
  AnchorPass pass(m, dsa);
  pass.build_local_tables();
  EXPECT_EQ(pass.local_table(b.function()).anchor_count(), 2u);
}

/// An access after the join IS dominated by the entry access.
TEST(AnchorPass, DominatingEntryAccessMakesJoinAccessNonAnchor) {
  ir::Module m;
  const ir::StructType* q =
      m.add_type(ir::make_struct("obj", {{"v", 0, 8, nullptr}}));
  FunctionBuilder b(m, "ab", {q, nullptr});
  b.load_field(b.param(0), q, "v");  // dominates everything below
  b.if_(b.param(1), [&] { b.const_i(1); });
  b.store_field(b.param(0), q, "v", b.const_i(3));  // dominated: non-anchor
  b.ret();
  m.add_atomic_block(b.function());

  dsa::ModuleDsa dsa(m);
  AnchorPass pass(m, dsa);
  pass.build_local_tables();
  const auto& lt = pass.local_table(b.function());
  EXPECT_EQ(lt.anchor_count(), 1u);
  EXPECT_EQ(lt.load_store_count(), 2u);
}

/// A loop-carried node access anchors once (the first static access).
TEST(AnchorPass, ListWalkHasOneAnchorPerDsNode) {
  ir::Module m;
  auto lib = workloads::dslib::build_list_lib(m);
  m.add_atomic_block(lib.find);
  dsa::ModuleDsa dsa(m);
  AnchorPass pass(m, dsa);
  pass.build_local_tables();
  const auto& lt = pass.local_table(lib.find);
  // list_find: load list->head (anchor on list), load cur->key (anchor on
  // node), load cur->next (non-anchor; same node, dominated by the key
  // load... only if the key load dominates — it does: body precedes adv).
  EXPECT_EQ(lt.load_store_count(), 3u);
  EXPECT_EQ(lt.anchor_count(), 2u);
}

TEST(AnchorPass, ParentEdgesFollowDsaStructure) {
  ir::Module m;
  auto lib = workloads::dslib::build_list_lib(m);
  m.add_atomic_block(lib.find);
  dsa::ModuleDsa dsa(m);
  AnchorPass pass(m, dsa);
  pass.build_local_tables();
  const auto& lt = pass.local_table(lib.find);
  const ATEntry* node_anchor = nullptr;
  const ATEntry* list_anchor = nullptr;
  for (const auto& e : lt.entries) {
    if (!e.is_anchor) continue;
    if (list_anchor == nullptr)
      list_anchor = &e;  // first anchor: load list->head
    else
      node_anchor = &e;
  }
  ASSERT_NE(list_anchor, nullptr);
  ASSERT_NE(node_anchor, nullptr);
  // The node anchor's parent is the list node (self-edges are skipped).
  ASSERT_NE(node_anchor->parent_node, nullptr);
  EXPECT_EQ(dsa::DSGraph::resolve(node_anchor->parent_node),
            dsa::DSGraph::resolve(list_anchor->node));
}

struct Compiled {
  ir::Module m;
  CompiledProgram prog;
};

/// Full pipeline over the genome-like hash table insert: the unified table
/// must expose the Fig. 3 parent chain node->list->bucketarr->htab via
/// parent_of().
TEST(UnifiedTable, HashInsertParentChainSupportsPromotion) {
  auto c = std::make_unique<Compiled>();
  auto lib = workloads::dslib::build_hash_lib(c->m, 16);
  c->m.add_atomic_block(lib.insert);
  c->prog = compile(c->m, InstrumentMode::kAnchors);
  const UnifiedAnchorTable& t = *c->prog.tables[0];

  // Find the deepest anchor (the list-node anchor inside list_insert).
  // Promotion from it must climb at least two distinct levels.
  std::uint32_t deepest = 0;
  unsigned best_depth = 0;
  for (const auto& e : t.entries()) {
    if (!e.is_anchor) continue;
    unsigned depth = 0;
    std::uint32_t cur = e.alp_id;
    while (t.parent_of(cur) != 0 && t.parent_of(cur) != cur && depth < 10) {
      cur = t.parent_of(cur);
      ++depth;
    }
    if (depth > best_depth) {
      best_depth = depth;
      deepest = e.alp_id;
    }
  }
  EXPECT_GE(best_depth, 2u) << "parent chain too shallow for promotion";
  EXPECT_NE(deepest, 0u);
}

TEST(UnifiedTable, LookupByPcAndByTag) {
  auto c = std::make_unique<Compiled>();
  auto lib = workloads::dslib::build_list_lib(c->m);
  c->m.add_atomic_block(lib.contains);
  c->prog = compile(c->m, InstrumentMode::kAnchors);
  const UnifiedAnchorTable& t = *c->prog.tables[0];
  ASSERT_FALSE(t.entries().empty());
  for (const auto& e : t.entries()) {
    const UnifiedEntry* by_pc = t.lookup_pc(e.pc);
    ASSERT_NE(by_pc, nullptr);
    EXPECT_EQ(by_pc->pc, e.pc);
    const UnifiedEntry* by_tag = t.lookup_tag(t.tag_of(e.pc));
    ASSERT_NE(by_tag, nullptr);
    // Tag lookups may collide; they must at least agree on the tag.
    EXPECT_EQ(t.tag_of(by_tag->pc), t.tag_of(e.pc));
  }
  EXPECT_EQ(t.lookup_pc(0xFFFFFF), nullptr);
}

TEST(UnifiedTable, EveryNonAnchorResolvesToAnAnchorAlp) {
  auto c = std::make_unique<Compiled>();
  auto lib = workloads::dslib::build_hash_lib(c->m, 16);
  c->m.add_atomic_block(lib.contains);
  c->prog = compile(c->m, InstrumentMode::kAnchors);
  for (const auto& e : c->prog.tables[0]->entries()) {
    EXPECT_NE(e.pioneer_alp, 0u);
    if (!e.is_anchor) {
      EXPECT_EQ(e.alp_id, 0u);
    }
  }
}

TEST(UnifiedTable, ContextSensitiveDuplication) {
  // One callee called from two atomic blocks appears in both unified
  // tables; entries reference the same PCs but are separate rows.
  auto c = std::make_unique<Compiled>();
  auto lib = workloads::dslib::build_list_lib(c->m);
  {
    FunctionBuilder b(c->m, "ab0", {lib.list_t, nullptr});
    b.ret(b.call(lib.contains, {b.param(0), b.param(1)}));
    c->m.add_atomic_block(b.function());
  }
  {
    FunctionBuilder b(c->m, "ab1", {lib.list_t, nullptr});
    b.ret(b.call(lib.contains, {b.param(0), b.param(1)}));
    c->m.add_atomic_block(b.function());
  }
  c->prog = compile(c->m, InstrumentMode::kAnchors);
  ASSERT_EQ(c->prog.tables.size(), 2u);
  EXPECT_EQ(c->prog.tables[0]->entries().size(),
            c->prog.tables[1]->entries().size());
  EXPECT_GT(c->prog.tables[0]->entries().size(), 0u);
}

}  // namespace
}  // namespace st::stagger
