#include "model/wa_simulator.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace seplsm::model {

namespace {
constexpr int64_t kNoData = std::numeric_limits<int64_t>::min();
}  // namespace

WaSimulator::WaSimulator(engine::PolicyConfig policy, size_t sstable_points)
    : policy_(policy), sstable_points_(sstable_points) {
  assert(sstable_points > 0);
  assert(policy.memtable_capacity > 0);
}

int64_t WaSimulator::RunMax() const {
  return run_.empty() ? kNoData : run_.back().max_tg();
}

void WaSimulator::Append(int64_t generation_time) {
  ++result_.points_ingested;
  if (policy_.kind == engine::PolicyKind::kConventional) {
    c0_.insert(generation_time);
    if (c0_.size() >= policy_.memtable_capacity) MergeIntoRun(&c0_);
    return;
  }
  if (generation_time > RunMax()) {
    cseq_.insert(generation_time);
    if (cseq_.size() >= policy_.nseq_capacity) FlushSeq();
  } else {
    cnonseq_.insert(generation_time);
    if (cnonseq_.size() >= policy_.nonseq_capacity()) {
      MergeIntoRun(&cnonseq_);
    }
  }
}

void WaSimulator::AppendKeysAsFiles(const std::vector<int64_t>& keys) {
  size_t i = 0;
  while (i < keys.size()) {
    size_t take = std::min(sstable_points_, keys.size() - i);
    SimFile file;
    file.keys.assign(keys.begin() + static_cast<long>(i),
                     keys.begin() + static_cast<long>(i + take));
    run_.push_back(std::move(file));
    i += take;
  }
}

void WaSimulator::FlushSeq() {
  if (cseq_.empty()) return;
  // Mirrors the engine's C_seq install (TsEngine::InstallFrontBatchLocked):
  // C_seq is strictly above the run, so the flush appends without rewriting (the defensive merge fallback of
  // the engine cannot trigger here: the run max only grows via FlushSeq).
  std::vector<int64_t> keys(cseq_.begin(), cseq_.end());
  assert(run_.empty() || keys.front() > RunMax());
  result_.points_flushed += keys.size();
  ++result_.flush_count;
  AppendKeysAsFiles(keys);
  cseq_.clear();
}

void WaSimulator::MergeIntoRun(std::set<int64_t>* table) {
  if (table->empty()) return;
  int64_t lo = *table->begin();
  int64_t hi = *table->rbegin();
  // Overlap slice [begin, end) like Version::OverlappingRunRange.
  size_t begin = 0;
  while (begin < run_.size() && run_[begin].max_tg() < lo) ++begin;
  size_t end = begin;
  while (end < run_.size() && run_[end].min_tg() <= hi) ++end;

  std::vector<int64_t> merged;
  uint64_t rewritten = 0;
  {
    std::vector<int64_t> disk;
    for (size_t i = begin; i < end; ++i) {
      disk.insert(disk.end(), run_[i].keys.begin(), run_[i].keys.end());
      rewritten += run_[i].keys.size();
    }
    merged.reserve(disk.size() + table->size());
    std::set_union(table->begin(), table->end(), disk.begin(), disk.end(),
                   std::back_inserter(merged));
  }

  std::vector<SimFile> replacements;
  {
    // Cut exactly like storage::WriteSortedPointsAsTables.
    size_t i = 0;
    while (i < merged.size()) {
      size_t take = std::min(sstable_points_, merged.size() - i);
      SimFile file;
      file.keys.assign(merged.begin() + static_cast<long>(i),
                       merged.begin() + static_cast<long>(i + take));
      replacements.push_back(std::move(file));
      i += take;
    }
  }
  run_.erase(run_.begin() + static_cast<long>(begin),
             run_.begin() + static_cast<long>(end));
  run_.insert(run_.begin() + static_cast<long>(begin),
              std::make_move_iterator(replacements.begin()),
              std::make_move_iterator(replacements.end()));

  result_.points_flushed += table->size();
  result_.points_rewritten += rewritten;
  ++result_.merge_count;
  merge_rewrites_.push_back(rewritten);
  table->clear();
}

void WaSimulator::FlushAll() {
  if (policy_.kind == engine::PolicyKind::kConventional) {
    MergeIntoRun(&c0_);
    return;
  }
  MergeIntoRun(&cnonseq_);
  FlushSeq();
}

}  // namespace seplsm::model
