/**
 * @file
 * The observability layer's JSON document model: deterministic
 * serialization and the in-memory accessors.  Real tool output is
 * checked by an independent parser (the json_artifacts test).
 */

#include <gtest/gtest.h>

#include "obs/json.hh"

namespace memfwd::obs
{
namespace
{

TEST(Json, ScalarKindsAndAccessors)
{
    EXPECT_TRUE(Json().isNull());
    EXPECT_TRUE(Json::boolean(true).asBool());
    EXPECT_EQ(Json::number(42).asU64(), 42u);
    EXPECT_DOUBLE_EQ(Json::real(2.5).asDouble(), 2.5);
    EXPECT_EQ(Json::string("hi").asString(), "hi");

    // number is readable through the double accessor too (rates math).
    EXPECT_DOUBLE_EQ(Json::number(7).asDouble(), 7.0);
}

TEST(Json, ObjectKeysSerializeSorted)
{
    Json obj = Json::object();
    obj["zebra"] = Json::number(1);
    obj["alpha"] = Json::number(2);
    obj["mid"] = Json::number(3);
    EXPECT_EQ(obj.str(), R"({"alpha":2,"mid":3,"zebra":1})");
}

TEST(Json, StringEscapes)
{
    EXPECT_EQ(Json::string("a\"b\\c\n\t").str(),
              "\"a\\\"b\\\\c\\n\\t\"");
}

TEST(Json, NestedDocumentExactText)
{
    Json doc = Json::object();
    doc["name"] = Json::string("memfwd");
    doc["count"] = Json::number(123456789);
    doc["rate"] = Json::real(0.25);
    doc["ok"] = Json::boolean(false);
    Json arr = Json::array();
    arr.push(Json::number(1));
    arr.push(Json::string("two"));
    Json inner = Json::object();
    inner["x"] = Json::number(0);
    arr.push(inner);
    doc["items"] = std::move(arr);

    EXPECT_EQ(doc.str(0),
              R"({"count":123456789,"items":[1,"two",{"x":0}],)"
              R"("name":"memfwd","ok":false,"rate":0.25})");
    EXPECT_EQ(doc.str(2), R"({
  "count": 123456789,
  "items": [
    1,
    "two",
    {
      "x": 0
    }
  ],
  "name": "memfwd",
  "ok": false,
  "rate": 0.25
})");
}

TEST(Json, FieldLookupWithoutCreation)
{
    Json obj = Json::object();
    obj["present"] = Json::number(1);
    EXPECT_TRUE(obj.has("present"));
    EXPECT_FALSE(obj.has("absent"));
    EXPECT_NE(obj.find("present"), nullptr);
    EXPECT_EQ(obj.find("absent"), nullptr);
    // find() never creates: the object still has exactly one field.
    EXPECT_EQ(obj.fields().size(), 1u);
}

} // namespace
} // namespace memfwd::obs
