// Tests for the frozen snapshot store (DESIGN.md §9): the .snap blob must be
// invisible in the results (checks over a mapped snapshot report exactly what
// a freshly built snapshot reports, including after copy-on-write edits), and
// a damaged blob must be rejected at load instead of producing wrong answers.
#include "engine/snapshot_store.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/plan.hpp"
#include "engine/rule.hpp"
#include "engine/snapshot.hpp"
#include "serve/edits.hpp"
#include "serve/session.hpp"
#include "workload/workload.hpp"

namespace odrc::engine {
namespace {

using workload::layers;
using workload::tech;

std::vector<checks::violation> norm(std::vector<checks::violation> v) {
  checks::normalize_all(v);
  return v;
}

std::vector<rules::rule> mixed_deck() {
  return {
      rules::layer(layers::M1).spacing().greater_than(tech::wire_space).named("M1.S"),
      rules::layer(layers::M2).spacing().greater_than(tech::wire_space).named("M2.S"),
      rules::layer(layers::V1)
          .enclosed_by(layers::M1)
          .greater_than(tech::via_enclosure)
          .named("V1.EN"),
      rules::layer(layers::M1).width().greater_than(tech::wire_width).named("M1.W"),
      rules::layer(layers::M1).area().greater_than(tech::min_area).named("M1.A"),
  };
}

db::library make_lib() {
  workload::design_spec spec = workload::spec_for("uart", 0.3);
  spec.inject = {2, 2, 1, 1};
  return workload::generate(spec).lib;
}

std::string temp_snap(const std::string& tag) {
  return (std::filesystem::temp_directory_path() / ("odrc_store_test_" + tag + ".snap"))
      .string();
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Full-deck results over the mapped snapshot must be byte-identical to the
// fresh build, per rule, in both execution modes — and the library coming
// back out of the blob must be structurally identical to the one that went in.
TEST(SnapshotStore, RoundTripCheckEquivalence) {
  const db::library lib = make_lib();
  const std::string path = temp_snap("roundtrip");
  const snapshot_build_stats st = build_snapshot_file(lib, path);
  EXPECT_EQ(st.cells, lib.cell_count());
  EXPECT_GT(st.views, 0u);

  const auto fs = frozen_snapshot::load(path);
  const db::library lib2 = fs->make_library();
  ASSERT_EQ(lib2.cell_count(), lib.cell_count());
  EXPECT_EQ(lib2.name(), lib.name());
  EXPECT_EQ(lib2.expanded_polygon_count(), lib.expanded_polygon_count());
  EXPECT_EQ(lib2.top_cells(), lib.top_cells());

  const std::vector<rules::rule> deck = mixed_deck();
  std::vector<exec_plan> plans;
  for (const rules::rule& r : deck) plans.push_back(compile_plan(r));

  for (const mode m : {mode::sequential, mode::parallel}) {
    engine_config cfg;
    cfg.run_mode = m;

    drc_engine fresh_eng(cfg);
    fresh_eng.add_rules(deck);
    layout_snapshot fresh_snap(lib);
    const deck_report fresh = fresh_eng.check_deck(plans, fresh_snap);

    drc_engine frozen_eng(cfg);
    frozen_eng.add_rules(deck);
    layout_snapshot frozen_snap(lib2, fs);
    ASSERT_TRUE(frozen_snap.frozen_backed());
    const deck_report mapped = frozen_eng.check_deck(plans, frozen_snap);

    ASSERT_EQ(mapped.per_rule.size(), deck.size());
    bool any = false;
    for (std::size_t i = 0; i < deck.size(); ++i) {
      EXPECT_EQ(norm(mapped.per_rule[i].violations), norm(fresh.per_rule[i].violations))
          << "mode=" << static_cast<int>(m) << " rule " << deck[i].name;
      any = any || !fresh.per_rule[i].violations.empty();
    }
    EXPECT_TRUE(any);
    // Nothing was edited, so nothing may have been thawed or masked.
    EXPECT_EQ(frozen_snap.overlay_entries(), 0u);
  }
}

// `snapshot build` must be loadable by `snapshot info`'s path too: the
// info_text surface doubles as a cheap full-validation pass.
TEST(SnapshotStore, InfoReportsSections) {
  const db::library lib = make_lib();
  const std::string path = temp_snap("info");
  build_snapshot_file(lib, path);
  const auto fs = frozen_snapshot::load(path);
  const std::string info = fs->info_text();
  EXPECT_NE(info.find("snapshot version 1"), std::string::npos);
  EXPECT_NE(info.find("section library"), std::string::npos);
  EXPECT_NE(info.find("section packed"), std::string::npos);
  EXPECT_EQ(fs->section_count(), 5u);
  EXPECT_EQ(fs->cell_count(), lib.cell_count());
}

TEST(SnapshotStore, RejectsTruncatedFile) {
  const db::library lib = make_lib();
  const std::string path = temp_snap("trunc");
  build_snapshot_file(lib, path);
  const std::vector<char> bytes = slurp(path);
  ASSERT_GT(bytes.size(), 256u);

  // Too small for even the header.
  spit(path, std::vector<char>(bytes.begin(), bytes.begin() + 16));
  EXPECT_THROW(frozen_snapshot::load(path), snapshot_format_error);

  // Header intact but the tail is gone.
  spit(path, std::vector<char>(bytes.begin(),
                               bytes.begin() + static_cast<std::ptrdiff_t>(bytes.size() / 2)));
  EXPECT_THROW(frozen_snapshot::load(path), snapshot_format_error);
}

TEST(SnapshotStore, RejectsBitFlips) {
  const db::library lib = make_lib();
  const std::string path = temp_snap("flip");
  build_snapshot_file(lib, path);
  const std::vector<char> good = slurp(path);

  // Flip one bit in several places spread across the sections; every single
  // one must be caught by a section (or table) checksum.
  for (const double frac : {0.2, 0.4, 0.6, 0.8, 0.95}) {
    std::vector<char> bad = good;
    bad[static_cast<std::size_t>(static_cast<double>(bad.size()) * frac)] ^= 0x10;
    spit(path, bad);
    EXPECT_THROW(frozen_snapshot::load(path), snapshot_format_error) << "frac=" << frac;
  }
}

TEST(SnapshotStore, RejectsWrongMagicAndVersion) {
  const db::library lib = make_lib();
  const std::string path = temp_snap("hdr");
  build_snapshot_file(lib, path);
  const std::vector<char> good = slurp(path);

  std::vector<char> bad_magic = good;
  bad_magic[0] ^= 0x01;  // u64 magic at offset 0
  spit(path, bad_magic);
  EXPECT_THROW(frozen_snapshot::load(path), snapshot_format_error);

  std::vector<char> bad_version = good;
  bad_version[8] = 99;  // u32 version at offset 8
  spit(path, bad_version);
  EXPECT_THROW(frozen_snapshot::load(path), snapshot_format_error);

  EXPECT_THROW(frozen_snapshot::load(path + ".does_not_exist"), snapshot_format_error);
}

// A randomized edit script applied to a cold session and a frozen-backed
// session must leave both with identical violation key sets after every
// recheck — the copy-on-write overlay is invisible — and must never write a
// byte back to the mapped file.
TEST(SnapshotCow, EditRecheckMatchesColdSession) {
  const db::library lib = make_lib();
  const std::string path = temp_snap("cow");
  build_snapshot_file(lib, path);
  const std::vector<char> file_before = slurp(path);

  const auto fs = frozen_snapshot::load(path);
  serve::session cold(lib, mixed_deck());
  serve::session frozen(fs, fs->make_library(), mixed_deck());
  cold.check_full();
  frozen.check_full();
  ASSERT_EQ(frozen.keys(), cold.keys());

  const std::string top = lib.at(lib.top_cells().front()).name();
  std::mt19937 rng(7);
  std::uniform_int_distribution<coord_t> pos(0, 4000);
  std::size_t added = 0;
  for (int round = 0; round < 6; ++round) {
    std::ostringstream script;
    if (round % 3 == 2 && added > 0) {
      // Undo one of the adds: layer-local index = original count + added - 1.
      std::size_t m1 = 0;
      for (const auto& p : lib.at(lib.top_cells().front()).polygons()) {
        if (p.layer == layers::M1) ++m1;
      }
      script << "remove_poly " << top << ' ' << int(layers::M1) << ' ' << (m1 + added - 1)
             << '\n';
      --added;
    } else {
      const coord_t x = pos(rng), y = pos(rng);
      script << "add_poly " << top << ' ' << int(layers::M1) << ' ' << x << ' ' << y << ' '
             << (x + 10) << ' ' << (y + 10) << '\n';
      ++added;
    }
    const auto ops = serve::parse_edit_script(script.str());
    cold.apply(ops);
    frozen.apply(ops);
    cold.recheck();
    frozen.recheck();
    EXPECT_EQ(frozen.keys(), cold.keys()) << "round " << round;
  }

  // The mapped file is immutable: every edit went to the overlay.
  EXPECT_EQ(slurp(path), file_before);
}

// An instance edit drops only the flat instance lists of the layers in the
// moved child's subtree: another layer's list is neither rebuilt nor cut off
// from the blob, a subtree layer's list is rebuilt from the edited library,
// and the checks over the edited snapshot equal a fresh one's.
TEST(SnapshotCow, InstanceEditKeepsOtherLayersFrozen) {
  const db::library lib = make_lib();
  const std::string path = temp_snap("inst_layers");
  build_snapshot_file(lib, path);
  const auto fs = frozen_snapshot::load(path);
  db::library lib2 = fs->make_library();
  layout_snapshot snap(lib2, fs);

  // A top-level reference whose subtree misses a layer the top has placements on.
  const db::cell_id top = lib2.top_cells().front();
  const std::size_t refs = lib2.at(top).refs().size();
  std::size_t ref = 0;
  db::layer_t inside = rules::any_layer, outside = rules::any_layer;  // any_layer: none
  for (; ref < refs; ++ref) {
    const db::cell_id child = lib2.at(top).refs()[ref].target;
    inside = outside = rules::any_layer;
    for (const db::layer_t l : snap.index().layers()) {
      if (snap.index().cell_has_layer(child, l)) {
        inside = l;
      } else if (!snap.instances(top, l).placed.empty()) {
        outside = l;
      }
    }
    if (inside != rules::any_layer && outside != rules::any_layer) break;
  }
  ASSERT_LT(ref, refs);

  const instance_set& kept = snap.instances(top, outside);
  const db::placed_cell* kept_data = kept.placed.data();
  ASSERT_TRUE(kept.placed.frozen());
  ASSERT_TRUE(snap.instances(top, inside).placed.frozen());

  const std::string script =
      "move_inst " + lib2.at(top).name() + ' ' + std::to_string(ref) + " 40 0\n";
  (void)serve::apply_edits(lib2, snap, serve::parse_edit_script(script));

  const instance_set& after = snap.instances(top, outside);
  EXPECT_EQ(&after, &kept);
  EXPECT_EQ(after.placed.data(), kept_data);
  EXPECT_TRUE(after.placed.frozen());
  EXPECT_FALSE(snap.instances(top, inside).placed.frozen());

  std::vector<exec_plan> plans;
  for (const rules::rule& r : mixed_deck()) plans.push_back(compile_plan(r));
  drc_engine eng;
  eng.add_rules(mixed_deck());
  layout_snapshot fresh(lib2);
  const deck_report edited = eng.check_deck(plans, snap);
  const deck_report expect = eng.check_deck(plans, fresh);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    EXPECT_EQ(norm(edited.per_rule[i].violations), norm(expect.per_rule[i].violations))
        << "rule " << i;
  }

  // The same edit through a frozen-backed session: its recheck store equals
  // a fresh check of the edited library, and the edit changed that store.
  serve::session frozen(fs, fs->make_library(), mixed_deck());
  frozen.check_full();
  const std::vector<std::string> before = frozen.keys();
  frozen.apply(serve::parse_edit_script(script));
  frozen.recheck();
  serve::session cold(lib2, mixed_deck());
  cold.check_full();
  EXPECT_EQ(frozen.keys(), cold.keys());
  EXPECT_NE(cold.keys(), before);
}

// Engine-level overlay accounting: invalidating a master masks its frozen
// entries (overlay_entries grows) and subsequent region checks still agree
// with a fresh snapshot over the edited library.
TEST(SnapshotCow, InvalidateMasksFrozenEntries) {
  db::library lib = make_lib();
  const std::string path = temp_snap("mask");
  build_snapshot_file(lib, path);
  const auto fs = frozen_snapshot::load(path);

  db::library lib2 = fs->make_library();
  layout_snapshot snap(lib2, fs);
  const std::vector<rules::rule> deck = {
      rules::layer(layers::M1).spacing().greater_than(tech::wire_space)};
  std::vector<exec_plan> plans{compile_plan(deck[0])};
  drc_engine eng;
  eng.add_rules(deck);
  (void)eng.check_deck(plans, snap);
  EXPECT_EQ(snap.overlay_entries(), 0u);

  const db::cell_id top = lib2.top_cells().front();
  lib2.at(top).add_rect(layers::M1, {900000, 900000, 900010, 900010});
  snap.invalidate_master(top);
  snap.invalidate_instances(std::vector<db::layer_t>{layers::M1});
  EXPECT_GT(snap.overlay_entries(), 0u);

  layout_snapshot fresh(lib2);
  drc_engine eng2;
  eng2.add_rules(deck);
  EXPECT_EQ(norm(eng.check_deck(plans, snap).per_rule[0].violations),
            norm(eng2.check_deck(plans, fresh).per_rule[0].violations));
}

}  // namespace
}  // namespace odrc::engine
