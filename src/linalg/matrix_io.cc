#include "linalg/matrix_io.h"

namespace bbv::linalg {

void WriteMatrix(common::BinaryWriter& writer, const Matrix& matrix) {
  writer.WriteUint64(matrix.rows());
  writer.WriteUint64(matrix.cols());
  writer.WriteDoubleVector(matrix.data());
}

common::Result<Matrix> ReadMatrix(common::BinaryReader& reader) {
  BBV_ASSIGN_OR_RETURN(uint64_t rows, reader.ReadUint64());
  BBV_ASSIGN_OR_RETURN(uint64_t cols, reader.ReadUint64());
  BBV_ASSIGN_OR_RETURN(std::vector<double> values,
                       reader.ReadDoubleVector());
  // Compare without forming rows * cols, which a corrupt header can make
  // wrap around to the payload size.
  if (cols == 0 ? !values.empty()
                : (values.size() % cols != 0 || values.size() / cols != rows)) {
    return common::Status::InvalidArgument("corrupt matrix payload");
  }
  return Matrix(rows, cols, std::move(values));
}

}  // namespace bbv::linalg
