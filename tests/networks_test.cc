/**
 * @file
 * Tests for the network layer tables (Sec. 6.1-6.2 workloads).
 */

#include <gtest/gtest.h>

#include "workload/networks.hh"

namespace antsim {
namespace {

void
checkChannelChaining(const std::vector<ConvLayer> &layers)
{
    // Spatial dims must be consistent with each layer's own geometry
    // (output fits), and channel counts must be positive.
    for (const auto &layer : layers) {
        EXPECT_GT(layer.inChannels, 0u) << layer.name;
        EXPECT_GT(layer.outChannels, 0u) << layer.name;
        const auto fwd = layer.phaseSpecs().forward;
        EXPECT_GE(fwd.outH(), 1u) << layer.name;
        EXPECT_EQ(fwd.outH(), (layer.paddedH() - layer.kernel) /
                      layer.stride + 1)
            << layer.name;
    }
}

TEST(Networks, ResNet18CifarStructure)
{
    const auto layers = resnet18Cifar();
    // 1 stem + 4 stages x (2 blocks x 2 convs) + 3 downsample 1x1s.
    EXPECT_EQ(layers.size(), 20u);
    EXPECT_EQ(layers.front().inChannels, 3u);
    EXPECT_EQ(layers.front().inH, 32u);
    // Last conv operates at 4x4 with 512 channels.
    EXPECT_EQ(layers.back().outChannels, 512u);
    EXPECT_EQ(layers.back().inH, 4u);
    checkChannelChaining(layers);
}

TEST(Networks, ResNet18HasDownsampleConvs)
{
    const auto layers = resnet18Cifar();
    int downsamples = 0;
    for (const auto &layer : layers)
        if (layer.kernel == 1)
            ++downsamples;
    EXPECT_EQ(downsamples, 3);
}

TEST(Networks, Vgg16CifarStructure)
{
    const auto layers = vgg16Cifar();
    EXPECT_EQ(layers.size(), 13u);
    for (const auto &layer : layers) {
        EXPECT_EQ(layer.kernel, 3u);
        EXPECT_EQ(layer.stride, 1u);
        EXPECT_EQ(layer.pad, 1u);
    }
    EXPECT_EQ(layers.back().outChannels, 512u);
    checkChannelChaining(layers);
}

TEST(Networks, Densenet121CifarStructure)
{
    const auto layers = densenet121Cifar();
    // 1 stem + 2*(6+12+24+16) dense-layer convs + 3 transitions = 120.
    EXPECT_EQ(layers.size(), 120u);
    // The last dense layer's 3x3 conv maps the 4*growth bottleneck to
    // growth channels at 4x4 resolution.
    const auto &last = layers.back();
    EXPECT_EQ(last.inChannels, 128u);
    EXPECT_EQ(last.outChannels, 32u);
    EXPECT_EQ(last.inH, 4u);
    // The third transition compresses 512+24*32 = 1280... DenseNet-121
    // reaches 1024 channels before the classifier; the transition
    // inputs are 256, 512, 1024 halved to 128, 256, 512.
    int transitions = 0;
    for (const auto &layer : layers) {
        if (layer.name.find("t") == 0) {
            ++transitions;
            EXPECT_EQ(layer.outChannels * 2, layer.inChannels)
                << layer.name;
        }
    }
    EXPECT_EQ(transitions, 3);
    checkChannelChaining(layers);
}

TEST(Networks, Wrn16x8CifarStructure)
{
    const auto layers = wrn16x8Cifar();
    // 1 stem + 3 groups x (2 blocks x 2 convs + 1 shortcut) = 16.
    EXPECT_EQ(layers.size(), 16u);
    EXPECT_EQ(layers[1].outChannels, 128u);
    EXPECT_EQ(layers.back().outChannels, 512u);
    checkChannelChaining(layers);
}

TEST(Networks, ResNet50ImagenetStructure)
{
    const auto layers = resnet50Imagenet();
    // 1 stem + (3+4+6+3) blocks x 3 convs + 4 downsamples = 53.
    EXPECT_EQ(layers.size(), 53u);
    EXPECT_EQ(layers.front().kernel, 7u);
    EXPECT_EQ(layers.front().stride, 2u);
    EXPECT_EQ(layers.front().inH, 224u);
    EXPECT_EQ(layers.back().outChannels, 2048u);
    checkChannelChaining(layers);
}

TEST(Networks, ResNet50StemOutputIs112)
{
    const auto stem = resnet50Imagenet().front();
    EXPECT_EQ(stem.phaseSpecs().forward.outH(), 112u);
    // The stem's padded image is the Table 2 row: 230x230.
    EXPECT_EQ(stem.paddedH(), 230u);
}

TEST(Networks, Figure9ListMatchesPaperOrder)
{
    const auto networks = figure9Networks();
    ASSERT_EQ(networks.size(), 5u);
    EXPECT_EQ(networks[0].name, "DenseNet-121");
    EXPECT_EQ(networks[1].name, "ResNet18");
    EXPECT_EQ(networks[2].name, "VGG16");
    EXPECT_EQ(networks[3].name, "WRN-16-8");
    EXPECT_EQ(networks[4].name, "ResNet50");
    // Only ResNet50 uses synthetic top-K (Sec. 6.2).
    for (const auto &net : networks)
        EXPECT_EQ(net.syntheticTopK, net.name == "ResNet50");
}

TEST(Networks, TransformerLayersMatchTable3Dims)
{
    const auto layers = transformerLayers();
    ASSERT_GE(layers.size(), 2u);
    EXPECT_EQ(layers[0].imageH, 512u);
    EXPECT_EQ(layers[0].imageW, 72u);
    EXPECT_EQ(layers[0].kernelS, 512u);
    for (const auto &layer : layers)
        EXPECT_EQ(layer.imageW, layer.kernelR) << layer.name;
}

TEST(Networks, RnnLayersMatchTable3Dims)
{
    const auto layers = rnnLayers();
    ASSERT_EQ(layers.size(), 6u);
    EXPECT_EQ(layers[0].imageH, 300u);
    EXPECT_EQ(layers[0].kernelS, 1200u);
    for (const auto &layer : layers)
        EXPECT_EQ(layer.imageW, layer.kernelR) << layer.name;
}

TEST(Networks, AllSamePaddingOrPointwise)
{
    // The phase-spec geometry assumes same-padding or pad-0 1x1/pool
    // convs; verify every layer satisfies pad == (k-1)/2 or pad == 0
    // with k <= stride+... (1x1 downsamples).
    for (const auto &net : figure9Networks()) {
        for (const auto &layer : net.layers) {
            const bool same_padding = layer.pad == (layer.kernel - 1) / 2;
            EXPECT_TRUE(same_padding) << net.name << " " << layer.name;
        }
    }
}

} // namespace
} // namespace antsim
