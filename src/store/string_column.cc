#include "store/string_column.h"

#include <algorithm>

#include "dict/serialization.h"
#include "obs/trace.h"
#include "util/check.h"

namespace adict {

DomainEncoded DomainEncode(std::span<const std::string> values) {
  DomainEncoded encoded;
  encoded.dictionary.assign(values.begin(), values.end());
  std::sort(encoded.dictionary.begin(), encoded.dictionary.end());
  encoded.dictionary.erase(
      std::unique(encoded.dictionary.begin(), encoded.dictionary.end()),
      encoded.dictionary.end());

  encoded.ids.reserve(values.size());
  for (const std::string& value : values) {
    const auto it = std::lower_bound(encoded.dictionary.begin(),
                                     encoded.dictionary.end(), value);
    encoded.ids.push_back(
        static_cast<uint32_t>(it - encoded.dictionary.begin()));
  }
  return encoded;
}

StringColumn StringColumn::FromValues(std::span<const std::string> values,
                                      DictFormat format) {
  return FromEncoded(DomainEncode(values), format);
}

StringColumn StringColumn::FromEncoded(DomainEncoded encoded,
                                       DictFormat format) {
  StringColumn column;
  column.dict_ = BuildDictionary(format, encoded.dictionary);
  column.vector_ = ColumnVector(
      encoded.ids, static_cast<uint32_t>(encoded.dictionary.size()));
  return column;
}

StringColumn StringColumn::FromParts(std::unique_ptr<Dictionary> dict,
                                     std::span<const uint32_t> ids) {
  ADICT_CHECK(dict != nullptr);
  StringColumn column;
  column.vector_ = ColumnVector(ids, dict->size());
  column.dict_ = std::move(dict);
  return column;
}

StringColumn StringColumn::FromParts(std::unique_ptr<Dictionary> dict,
                                     ColumnVector vector) {
  ADICT_CHECK(dict != nullptr);
  StringColumn column;
  column.vector_ = std::move(vector);
  column.dict_ = std::move(dict);
  return column;
}

std::vector<std::string> StringColumn::MaterializeDictionary() const {
  ADICT_TRACE_SPAN("column.materialize_dictionary");
  std::vector<std::string> values;
  values.reserve(dict_->size());
  dict_->Scan(0, dict_->size(), [&values](uint32_t, std::string_view value) {
    values.emplace_back(value);
  });
  return values;
}

StringColumn StringColumn::WithFormat(DictFormat format) const {
  return FromParts(BuildDictionary(format, MaterializeDictionary()),
                   ColumnVector(vector_));
}

void StringColumn::Serialize(ByteWriter* out) const {
  std::vector<uint8_t> dict_bytes;
  SaveDictionary(*dict_, &dict_bytes);
  out->WriteVector(dict_bytes);
  vector_.Serialize(out);
}

StatusOr<StringColumn> StringColumn::Deserialize(ByteReader* in) {
  StringColumn column;
  const std::vector<uint8_t> dict_bytes = in->ReadVector<uint8_t>();
  StatusOr<std::unique_ptr<Dictionary>> dict = LoadDictionary(dict_bytes);
  if (!dict.ok()) return dict.status();
  column.dict_ = std::move(dict).value();
  column.vector_ = ColumnVector::Deserialize(in);
  return column;
}

}  // namespace adict
