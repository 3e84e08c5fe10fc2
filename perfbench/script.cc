#include "script.h"

#include <algorithm>
#include <set>

#include "common/json.h"
#include "common/random.h"

namespace perfbench {

std::vector<AnalystStep> MakeAnalystScript(uint64_t seed, size_t steps) {
  vadasa::Rng rng(seed ^ 0xa11a1a57ull);
  // Fresh seeds count up from a seeded base, so they never repeat within a
  // run (one server lifetime) and stay exact as JSON doubles.
  uint64_t next_fresh = 1000 + rng.NextBelow(uint64_t{1} << 32);
  std::vector<AnalystStep> script(steps + 1);
  for (size_t i = 0; i < script.size(); ++i) {
    AnalystStep& step = script[i];
    step.risk_seed = next_fresh++;
    int order[3] = {0, 1, 2};
    for (int j = 2; j > 0; --j) {
      std::swap(order[j], order[rng.NextBelow(static_cast<uint64_t>(j) + 1)]);
    }
    step.hit[0] = order[0];
    step.hit[1] = order[1];
    step.release = i == 0 || i % 5 == 0;
    step.release_policy = static_cast<int>(rng.NextBelow(3));
    if (step.release) step.release_seed = next_fresh++;
  }
  return script;
}

std::vector<FeedBatch> MakeFeedBatches(const vadasa::CsvTable& csv,
                                       uint64_t seed, size_t count) {
  vadasa::Rng rng(seed ^ 0xfeedba7cull);
  const size_t rows = csv.rows.size();
  const size_t width = csv.header.size();
  const auto ops = static_cast<size_t>(static_cast<double>(rows) * kFeedBatchShare);
  const auto updates = static_cast<size_t>(static_cast<double>(ops) * kFeedUpdateShare);
  const size_t appends = (ops - updates) / 2;
  const size_t deletes = appends;
  auto draw_row = [&] {
    std::vector<std::string> cells(width);
    for (size_t c = 0; c < width; ++c) cells[c] = csv.rows[rng.NextBelow(rows)][c];
    return cells;
  };
  std::vector<FeedBatch> batches(count);
  for (FeedBatch& batch : batches) {
    // Updated and deleted rows are distinct, so no op shadows another.
    std::set<uint32_t> targets;
    while (targets.size() < updates + deletes) {
      targets.insert(static_cast<uint32_t>(rng.NextBelow(rows)));
    }
    std::vector<uint32_t> picked(targets.begin(), targets.end());
    for (size_t i = picked.size(); i > 1; --i) {
      std::swap(picked[i - 1], picked[rng.NextBelow(i)]);
    }
    for (size_t i = 0; i < updates; ++i) {
      batch.push_back({FeedOp::kUpdate, picked[i], draw_row()});
    }
    for (size_t i = 0; i < deletes; ++i) {
      batch.push_back({FeedOp::kDelete, picked[updates + i], {}});
    }
    for (size_t i = 0; i < appends; ++i) {
      batch.push_back({FeedOp::kAppend, 0, draw_row()});
    }
  }
  return batches;
}

std::string DeltaRequestLine(const std::string& dataset, const FeedBatch& batch) {
  vadasa::Json::Array ops;
  ops.reserve(batch.size());
  for (const FeedOp& op : batch) {
    vadasa::Json::Object entry;
    entry["kind"] = op.kind == FeedOp::kAppend   ? "append"
                    : op.kind == FeedOp::kUpdate ? "update"
                                                 : "delete";
    if (op.kind != FeedOp::kAppend) entry["row"] = static_cast<int64_t>(op.row);
    if (op.kind != FeedOp::kDelete) {
      vadasa::Json::Array cells(op.cells.begin(), op.cells.end());
      entry["values"] = std::move(cells);
    }
    ops.emplace_back(std::move(entry));
  }
  vadasa::Json::Object request;
  request["op"] = "apply_delta";
  request["v"] = 2;
  request["dataset"] = dataset;
  request["ops"] = std::move(ops);
  return vadasa::Json(std::move(request)).Dump();
}

vadasa::Result<vadasa::core::DeltaBatch> ToDeltaBatch(const FeedBatch& batch,
                                                      size_t num_columns) {
  vadasa::core::DeltaBatchBuilder ops(num_columns);
  auto values = [](const std::vector<std::string>& cells) {
    std::vector<vadasa::Value> out;
    out.reserve(cells.size());
    for (const std::string& cell : cells) out.push_back(vadasa::CellToValue(cell));
    return out;
  };
  for (const FeedOp& op : batch) {
    switch (op.kind) {
      case FeedOp::kAppend:
        ops.Append(values(op.cells));
        break;
      case FeedOp::kUpdate:
        ops.Update(op.row, values(op.cells));
        break;
      case FeedOp::kDelete:
        ops.Delete(op.row);
        break;
    }
  }
  return ops.Build();
}

}  // namespace perfbench
