#include "tensor/serialize.h"

namespace ba::tensor {

namespace {

constexpr util::SealedFormat kBatn{{'B', 'A', 'T', 'N'}, 2, "checkpoint"};

// Plausibility bounds on a record's shape, checked before the shape is
// trusted. The element count is further bounded by the bytes left.
constexpr uint32_t kMaxRank = 8;
constexpr int64_t kMaxDim = int64_t{1} << 32;

}  // namespace

void AppendTensorRecord(std::string* out, const Tensor& t) {
  util::AppendPod(out, static_cast<uint32_t>(t.rank()));
  for (int64_t d = 0; d < t.rank(); ++d) util::AppendPod(out, t.dim(d));
  out->append(reinterpret_cast<const char*>(t.data()),
              static_cast<size_t>(t.numel()) * sizeof(float));
}

Status ReadTensorRecord(util::SealedBody* in, const std::string& what,
                        Tensor* out) {
  uint32_t rank = 0;
  if (!in->ReadPod(&rank)) return in->Corrupt(what + ": truncated header");
  if (rank > kMaxRank) {
    return in->Corrupt(what + ": implausible rank " + std::to_string(rank));
  }
  if (!in->CanHold(rank, sizeof(int64_t))) {
    return in->Corrupt(what + ": truncated header");
  }
  std::vector<int64_t> shape(rank);
  int64_t numel = 1;
  for (int64_t& dim : shape) {
    in->ReadPod(&dim);
    if (dim < 0 || dim > kMaxDim) {
      return in->Corrupt(what + ": implausible dim " + std::to_string(dim));
    }
    if (dim != 0 && numel > kMaxDim / dim) {
      return in->Corrupt(what + ": implausible element count");
    }
    numel *= dim;
  }
  if (!in->CanHold(static_cast<uint64_t>(numel), sizeof(float))) {
    return in->Corrupt(what + ": truncated payload (" +
                       std::to_string(numel * sizeof(float)) +
                       " bytes needed, " + std::to_string(in->remaining()) +
                       " left)");
  }
  Tensor t(std::move(shape));
  in->ReadBytes(t.data(), static_cast<size_t>(numel) * sizeof(float));
  *out = std::move(t);
  return Status::OK();
}

std::string SerializeParameters(const std::vector<Var>& params) {
  std::string body;
  util::AppendPod(&body, static_cast<uint64_t>(params.size()));
  for (const auto& p : params) AppendTensorRecord(&body, p->value);
  return util::SealImage(kBatn, body);
}

Status DeserializeParameters(const std::vector<Var>& params,
                             const std::string& image,
                             const std::string& context) {
  BA_ASSIGN_OR_RETURN(util::SealedBody body,
                      util::OpenSealed(image, kBatn, context));
  uint64_t count = 0;
  if (!body.ReadPod(&count)) {
    return body.Corrupt("truncated header (no tensor count)");
  }
  // Nothing is allocated per counted tensor: each record is bounded as
  // it is read, so the count only has to match the model.
  if (count != params.size()) {
    if (!body.CanHold(count, kMinTensorRecordBytes)) {
      return body.Corrupt("implausible tensor count " +
                          std::to_string(count));
    }
    return body.Corrupt("checkpoint holds " + std::to_string(count) +
                        " tensors, model has " +
                        std::to_string(params.size()));
  }
  for (size_t i = 0; i < params.size(); ++i) {
    const std::string what = "tensor " + std::to_string(i);
    Tensor t;
    BA_RETURN_NOT_OK(ReadTensorRecord(&body, what, &t));
    Tensor& dst = params[i]->value;
    if (t.rank() != dst.rank()) {
      return body.Corrupt(what + ": rank mismatch (" +
                          std::to_string(t.rank()) + " vs " +
                          std::to_string(dst.rank()) + ")");
    }
    if (!t.SameShape(dst)) return body.Corrupt(what + ": shape mismatch");
    dst = std::move(t);
  }
  return body.ExpectEnd();
}

Status SaveParameters(const std::vector<Var>& params,
                      const std::string& path) {
  const std::string image = SerializeParameters(params);
  util::AtomicFileWriter out(path);
  BA_RETURN_NOT_OK(out.Open());
  BA_RETURN_NOT_OK(out.Append(image));
  return out.Commit();
}

Status LoadParameters(const std::vector<Var>& params,
                      const std::string& path) {
  BA_ASSIGN_OR_RETURN(const std::string buf, util::ReadFileToString(path));
  return DeserializeParameters(params, buf, path);
}

}  // namespace ba::tensor
