// RNCKPT1 parameter blocks, the part of every model file after its
// header: built with put_parameters and read back through the Reader
// overload of load_parameters, the one path that reads them.
#include "ag/serialize.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace rn::ag {
namespace {

std::string block_of(const std::vector<Parameter*>& params) {
  std::string out;
  put_parameters(out, params);
  return out;
}

void load_block(const std::string& bytes,
                const std::vector<Parameter*>& params) {
  util::Reader in(bytes, "block");
  load_parameters(in, params);
  in.expect_done("parameter block");
}

TEST(Serialize, RoundTripPreservesValues) {
  Parameter a("layer.w", Tensor::from_rows({{1.5f, -2.0f}, {0.25f, 3.0f}}));
  Parameter b("layer.b", Tensor::from_rows({{0.1f, 0.2f}}));
  const std::string bytes = block_of({&a, &b});

  Parameter a2("layer.w", Tensor(2, 2));
  Parameter b2("layer.b", Tensor(1, 2));
  load_block(bytes, {&a2, &b2});
  for (int i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(a2.value[static_cast<std::size_t>(i)],
                    a.value[static_cast<std::size_t>(i)]);
  }
  EXPECT_FLOAT_EQ(b2.value.at(0, 1), 0.2f);
}

TEST(Serialize, LoadByNameIgnoresOrder) {
  Parameter a("first", Tensor::scalar(1.0f));
  Parameter b("second", Tensor::scalar(2.0f));
  const std::string bytes = block_of({&a, &b});
  Parameter b2("second", Tensor::scalar(0.0f));
  Parameter a2("first", Tensor::scalar(0.0f));
  load_block(bytes, {&b2, &a2});
  EXPECT_FLOAT_EQ(a2.value.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(b2.value.at(0, 0), 2.0f);
}

TEST(Serialize, MissingParameterThrows) {
  Parameter a("present", Tensor::scalar(1.0f));
  const std::string bytes = block_of({&a});
  Parameter ghost("ghost", Tensor::scalar(0.0f));
  EXPECT_THROW(load_block(bytes, {&ghost}), std::runtime_error);
}

TEST(Serialize, MissingParameterErrorNamesParameterAndShape) {
  Parameter a("present", Tensor::scalar(1.0f));
  const std::string bytes = block_of({&a});
  Parameter ghost("ghost", Tensor::scalar(0.0f));
  try {
    load_block(bytes, {&ghost});
    FAIL() << "expected a missing-parameter error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'ghost'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("1x1"), std::string::npos) << msg;
  }
}

TEST(Serialize, ShapeMismatchThrows) {
  Parameter a("p", Tensor(2, 2));
  const std::string bytes = block_of({&a});
  Parameter wrong("p", Tensor(2, 3));
  EXPECT_THROW(load_block(bytes, {&wrong}), std::runtime_error);
}

TEST(Serialize, ShapeMismatchErrorNamesParameterAndBothShapes) {
  Parameter a("p", Tensor(2, 2));
  const std::string bytes = block_of({&a});
  Parameter wrong("p", Tensor(2, 3));
  try {
    load_block(bytes, {&wrong});
    FAIL() << "expected a shape-mismatch error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'p'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("2x2"), std::string::npos) << msg;  // checkpoint shape
    EXPECT_NE(msg.find("2x3"), std::string::npos) << msg;  // model shape
  }
}

TEST(Serialize, BadMagicThrows) {
  Parameter p("p", Tensor::scalar(0.0f));
  EXPECT_THROW(load_block("not a checkpoint at all", {&p}),
               std::runtime_error);
  EXPECT_THROW(load_block("", {&p}), std::runtime_error);
}

}  // namespace
}  // namespace rn::ag
