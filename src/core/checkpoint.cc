#include "core/checkpoint.h"

#include <algorithm>

#include "tensor/serialize.h"
#include "util/fs.h"

namespace ba::core {

namespace {

constexpr util::SealedFormat kBack{{'B', 'A', 'C', 'K'}, 1,
                                   "training checkpoint"};

Status WriteTensor(util::SealedFileWriter* out, const tensor::Tensor& t) {
  std::string record;
  tensor::AppendTensorRecord(&record, t);
  return out->Append(record);
}

Status WriteMoments(
    util::SealedFileWriter* out,
    const std::vector<std::pair<uint64_t, tensor::Tensor>>& moments) {
  BA_RETURN_NOT_OK(out->WritePod(static_cast<uint64_t>(moments.size())));
  for (const auto& [index, t] : moments) {
    BA_RETURN_NOT_OK(out->WritePod(index));
    BA_RETURN_NOT_OK(WriteTensor(out, t));
  }
  return Status::OK();
}

Status ReadMoments(util::SealedBody* in, const std::string& what,
                   uint64_t param_count,
                   std::vector<std::pair<uint64_t, tensor::Tensor>>* out) {
  uint64_t entries = 0;
  if (!in->ReadPod(&entries)) {
    return in->Corrupt(what + ": truncated entry count");
  }
  if (entries > param_count ||
      !in->CanHold(entries,
                   sizeof(uint64_t) + tensor::kMinTensorRecordBytes)) {
    return in->Corrupt(what + ": implausible entry count " +
                       std::to_string(entries));
  }
  out->reserve(entries);
  for (uint64_t e = 0; e < entries; ++e) {
    uint64_t index = 0;
    if (!in->ReadPod(&index)) {
      return in->Corrupt(what + ": truncated entry index");
    }
    if (index >= param_count) {
      return in->Corrupt(what + ": entry index " + std::to_string(index) +
                         " out of range");
    }
    tensor::Tensor t;
    BA_RETURN_NOT_OK(tensor::ReadTensorRecord(
        in, what + " entry " + std::to_string(e), &t));
    out->emplace_back(index, std::move(t));
  }
  return Status::OK();
}

std::vector<std::pair<uint64_t, tensor::Tensor>> SortedMoments(
    const std::unordered_map<size_t, tensor::Tensor>& moments) {
  std::vector<std::pair<uint64_t, tensor::Tensor>> out;
  out.reserve(moments.size());
  for (const auto& [index, t] : moments) {
    out.emplace_back(static_cast<uint64_t>(index), t);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

}  // namespace

TrainingCheckpoint CaptureTrainingCheckpoint(
    const std::vector<tensor::Var>& params, const tensor::Adam& optimizer,
    const Rng& rng, int epoch) {
  TrainingCheckpoint ckpt;
  ckpt.epoch = epoch;
  ckpt.rng = rng.SaveState();
  ckpt.adam_step = optimizer.step();
  ckpt.params.reserve(params.size());
  for (const auto& p : params) ckpt.params.push_back(p->value);
  ckpt.adam_m = SortedMoments(optimizer.moments_m());
  ckpt.adam_v = SortedMoments(optimizer.moments_v());
  return ckpt;
}

Status SaveTrainingCheckpoint(const TrainingCheckpoint& ckpt,
                              const std::string& path) {
  util::SealedFileWriter out(path, kBack);
  BA_RETURN_NOT_OK(out.Open());
  BA_RETURN_NOT_OK(out.WritePod(static_cast<int32_t>(ckpt.epoch)));
  for (uint64_t s : ckpt.rng.s) BA_RETURN_NOT_OK(out.WritePod(s));
  BA_RETURN_NOT_OK(
      out.WritePod(static_cast<uint8_t>(ckpt.rng.gaussian_cached)));
  BA_RETURN_NOT_OK(out.WritePod(ckpt.rng.gaussian_cache));
  BA_RETURN_NOT_OK(out.WritePod(static_cast<int32_t>(ckpt.adam_step)));
  BA_RETURN_NOT_OK(out.WritePod(static_cast<uint64_t>(ckpt.params.size())));
  for (const auto& t : ckpt.params) BA_RETURN_NOT_OK(WriteTensor(&out, t));
  BA_RETURN_NOT_OK(WriteMoments(&out, ckpt.adam_m));
  BA_RETURN_NOT_OK(WriteMoments(&out, ckpt.adam_v));
  return out.Commit();
}

Result<TrainingCheckpoint> LoadTrainingCheckpoint(const std::string& path) {
  BA_ASSIGN_OR_RETURN(const std::string buf, util::ReadFileToString(path));
  BA_ASSIGN_OR_RETURN(util::SealedBody body,
                      util::OpenSealed(buf, kBack, path));
  TrainingCheckpoint ckpt;
  int32_t epoch = 0;
  if (!body.ReadPod(&epoch) || epoch < 0) {
    return body.Corrupt("truncated or invalid epoch");
  }
  ckpt.epoch = epoch;
  uint8_t gaussian_cached = 0;
  if (!body.ReadPod(&ckpt.rng.s) || !body.ReadPod(&gaussian_cached) ||
      !body.ReadPod(&ckpt.rng.gaussian_cache)) {
    return body.Corrupt("truncated rng state");
  }
  ckpt.rng.gaussian_cached = gaussian_cached != 0;
  int32_t adam_step = 0;
  if (!body.ReadPod(&adam_step) || adam_step < 0) {
    return body.Corrupt("truncated or invalid adam step");
  }
  ckpt.adam_step = adam_step;

  uint64_t param_count = 0;
  if (!body.ReadPod(&param_count)) {
    return body.Corrupt("truncated parameter count");
  }
  if (!body.CanHold(param_count, tensor::kMinTensorRecordBytes)) {
    return body.Corrupt("implausible parameter count " +
                        std::to_string(param_count));
  }
  ckpt.params.reserve(param_count);
  for (uint64_t i = 0; i < param_count; ++i) {
    tensor::Tensor t;
    BA_RETURN_NOT_OK(
        tensor::ReadTensorRecord(&body, "param " + std::to_string(i), &t));
    ckpt.params.push_back(std::move(t));
  }
  BA_RETURN_NOT_OK(ReadMoments(&body, "adam m", param_count, &ckpt.adam_m));
  BA_RETURN_NOT_OK(ReadMoments(&body, "adam v", param_count, &ckpt.adam_v));
  BA_RETURN_NOT_OK(body.ExpectEnd());
  return ckpt;
}

Status RestoreTrainingCheckpoint(const TrainingCheckpoint& ckpt,
                                 const std::vector<tensor::Var>& params,
                                 tensor::Adam* optimizer, Rng* rng,
                                 int* epoch) {
  if (ckpt.params.size() != params.size()) {
    return Status::InvalidArgument(
        "checkpoint holds " + std::to_string(ckpt.params.size()) +
        " parameters, model has " + std::to_string(params.size()));
  }
  for (size_t i = 0; i < params.size(); ++i) {
    if (!ckpt.params[i].SameShape(params[i]->value)) {
      return Status::InvalidArgument("param " + std::to_string(i) +
                                     ": shape mismatch");
    }
  }
  auto validate_moments =
      [&](const std::vector<std::pair<uint64_t, tensor::Tensor>>& moments,
          const char* what) -> Status {
    for (const auto& [index, t] : moments) {
      if (index >= params.size()) {
        return Status::InvalidArgument(std::string(what) + ": index " +
                                       std::to_string(index) +
                                       " out of range");
      }
      if (!t.SameShape(params[index]->value)) {
        return Status::InvalidArgument(std::string(what) + " " +
                                       std::to_string(index) +
                                       ": shape mismatch");
      }
    }
    return Status::OK();
  };
  BA_RETURN_NOT_OK(validate_moments(ckpt.adam_m, "adam m"));
  BA_RETURN_NOT_OK(validate_moments(ckpt.adam_v, "adam v"));

  for (size_t i = 0; i < params.size(); ++i) {
    params[i]->value = ckpt.params[i];
  }
  std::unordered_map<size_t, tensor::Tensor> m, v;
  for (const auto& [index, t] : ckpt.adam_m) m.emplace(index, t);
  for (const auto& [index, t] : ckpt.adam_v) v.emplace(index, t);
  optimizer->SetMoments(std::move(m), std::move(v));
  optimizer->set_step(ckpt.adam_step);
  rng->RestoreState(ckpt.rng);
  *epoch = ckpt.epoch;
  return Status::OK();
}

std::string CheckpointPath(const std::string& checkpoint_dir) {
  return checkpoint_dir + "/graph_model.ckpt";
}

}  // namespace ba::core
